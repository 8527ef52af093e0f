//! The scenario runner: the high-level public API that examples, integration
//! tests and the benchmark harness use to run one experiment
//! (protocol × topology × N × seed) and collect the metrics the paper reports.

use crate::error::ScenarioError;
use crate::protocol::Protocol;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use wlan_sim::{
    CaptureModel, ControlEpoch, PhyParams, SimDuration, SimStats, SimTime, Simulator,
    SimulatorBuilder, ThroughputSample, Topology, TrafficSpec,
};

/// How the stations are laid out around the AP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Idealised fully connected network (every station senses every other).
    FullyConnected,
    /// Stations evenly spaced on a ring of the given radius (metres). With the
    /// default ranges a radius of 8 m is fully connected.
    Ring {
        /// Ring radius in metres.
        radius: f64,
    },
    /// Stations placed uniformly at random in a disc of the given radius (metres);
    /// 16 m and 20 m are the paper's hidden-node configurations.
    UniformDisc {
        /// Disc radius in metres.
        radius: f64,
    },
    /// Stations on a regular square lattice whose total side length is fixed
    /// (metres): the per-station spacing is `side / ceil(sqrt(n))`, so
    /// growing `n` densifies the same physical cell instead of expanding it —
    /// the scaling campaign's "office floor" regime, with a roughly
    /// scale-stable hidden-pair fraction. Keep `side × √2 / 2` within the
    /// 24 m sensing range so every station consistently senses the AP (see
    /// [`Topology::grid`]); the scaling campaign uses 32 m.
    Grid {
        /// Side length of the lattice in metres.
        side: f64,
    },
    /// Stations grouped into hotspot clusters: cluster centres uniform in a
    /// disc of radius `spread`, stations uniform in a disc of radius
    /// `cluster_radius` around their (round-robin assigned) centre. Dense
    /// local neighbourhoods, hidden pairs only between distant clusters.
    Clustered {
        /// Number of hotspot clusters.
        clusters: usize,
        /// Radius of the disc the cluster centres are drawn from (metres).
        spread: f64,
        /// Radius of each cluster (metres).
        cluster_radius: f64,
    },
}

impl TopologySpec {
    /// Materialise the topology for `n` stations using `seed` for random placement.
    pub fn build(&self, n: usize, seed: u64) -> Topology {
        let placement_rng = || ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        match self {
            TopologySpec::FullyConnected => Topology::fully_connected(n),
            TopologySpec::Ring { radius } => Topology::ring(n, *radius),
            TopologySpec::UniformDisc { radius } => {
                Topology::uniform_disc(n, *radius, &mut placement_rng())
            }
            TopologySpec::Grid { side } => {
                let cols = (n as f64).sqrt().ceil().max(1.0);
                Topology::grid(n, side / cols)
            }
            TopologySpec::Clustered {
                clusters,
                spread,
                cluster_radius,
            } => Topology::clustered(n, *clusters, *spread, *cluster_radius, &mut placement_rng()),
        }
    }
}

/// Full description of one simulation run.
///
/// Serialisable: the result cache keys jobs by a canonical encoding of this
/// struct (see [`crate::cache`]), and `campaign-server` reads job lists as
/// JSON. Every field participates in the cache key, so adding a field is a
/// (deliberate) cache-invalidation event for scenarios that set it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// The channel-access scheme under test.
    pub protocol: Protocol,
    /// Station layout.
    pub topology: TopologySpec,
    /// Number of stations.
    pub n: usize,
    /// Per-station weights (defaults to all ones). Only wTOP-CSMA honours them.
    pub weights: Option<Vec<f64>>,
    /// RNG seed (placement + all contention randomness).
    pub seed: u64,
    /// Warm-up time excluded from measurements (lets adaptive schemes converge).
    pub warmup: SimDuration,
    /// Measurement time.
    pub measure: SimDuration,
    /// `UPDATE_PERIOD` for the stochastic-approximation controllers.
    pub update_period: SimDuration,
    /// PHY parameters (Table I by default).
    pub phy: PhyParams,
    /// Width of the throughput time-series bins.
    pub throughput_bin: SimDuration,
    /// Physical-layer capture model at the AP. Defaults to the indoor SIR model,
    /// mirroring the SINR-based reception of the ns-3 PHY the paper evaluates on.
    /// Set to `None` for the paper's idealised "any overlap is a loss" channel
    /// (which is also what the analytical models assume). Irrelevant for ring /
    /// fully-connected layouts, where all stations are equidistant from the AP.
    pub capture: Option<CaptureModel>,
    /// Offered-load model: arrival process + per-station queue bound.
    /// Defaults to the paper's saturated sources (no traffic layer at all);
    /// any finite-load spec makes the run also report a
    /// [`TrafficSummary`] (delay, jitter, drops, queue occupancy).
    pub traffic: TrafficSpec,
}

impl Scenario {
    /// A scenario with the paper's defaults: Table I PHY, 250 ms update period,
    /// 1 s throughput bins, no warm-up configured yet.
    pub fn new(protocol: Protocol, topology: TopologySpec, n: usize) -> Self {
        Scenario {
            protocol,
            topology,
            n,
            weights: None,
            seed: 1,
            warmup: SimDuration::from_secs(10),
            measure: SimDuration::from_secs(10),
            update_period: SimDuration::from_millis(250),
            phy: PhyParams::table1(),
            throughput_bin: SimDuration::from_secs(1),
            capture: Some(CaptureModel::default_indoor()),
            traffic: TrafficSpec::saturated(),
        }
    }

    /// Disable (or replace) the physical-layer capture model.
    pub fn capture(mut self, capture: Option<CaptureModel>) -> Self {
        self.capture = capture;
        self
    }

    /// Replace the offered-load model (default: saturated sources).
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set warm-up and measurement durations.
    pub fn durations(mut self, warmup: SimDuration, measure: SimDuration) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Set per-station weights.
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.n);
        self.weights = Some(weights);
        self
    }

    /// Set the controller update period.
    pub fn update_period(mut self, period: SimDuration) -> Self {
        self.update_period = period;
        self
    }

    /// Pre-flight validation: reject descriptions no simulator can run
    /// (`n == 0`, a weight vector whose length disagrees with `n`,
    /// non-positive or non-finite weights, NaN/negative arrival rates, a
    /// queue bound of zero frames, a zero total duration, inconsistent PHY
    /// parameters, static protocol parameters out of range, a zero-width
    /// throughput bin) **before** any engine state is built.
    ///
    /// `campaign_server` calls this while parsing job specs, so a bad spec
    /// yields a per-job error line instead of a worker panic; the supervised
    /// campaign pool calls it as its pre-flight check for the same reason.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.n == 0 {
            return Err(ScenarioError::ZeroStations);
        }
        if let Some(weights) = &self.weights {
            if weights.len() != self.n {
                return Err(ScenarioError::WeightsLengthMismatch {
                    expected: self.n,
                    got: weights.len(),
                });
            }
            if let Some((index, &value)) = weights
                .iter()
                .enumerate()
                .find(|(_, w)| !(w.is_finite() && **w > 0.0))
            {
                return Err(ScenarioError::InvalidWeight { index, value });
            }
        }
        self.traffic
            .validate()
            .map_err(ScenarioError::InvalidTraffic)?;
        if self.warmup.is_zero() && self.measure.is_zero() {
            return Err(ScenarioError::ZeroDuration);
        }
        // Before the protocol checks: `max_backoff_stage` divides by CWmin.
        self.phy.validate().map_err(ScenarioError::InvalidPhy)?;
        match self.protocol {
            Protocol::StaticPPersistent { p } if !(0.0..=1.0).contains(&p) => {
                return Err(ScenarioError::InvalidAttemptProbability(p));
            }
            Protocol::StaticRandomReset { stage, p0 } => {
                let max_stage = self.phy.max_backoff_stage();
                if stage >= max_stage {
                    return Err(ScenarioError::InvalidResetStage { stage, max_stage });
                }
                if !(0.0..=1.0).contains(&p0) {
                    return Err(ScenarioError::InvalidResetProbability(p0));
                }
            }
            _ => {}
        }
        if self.throughput_bin.is_zero() {
            return Err(ScenarioError::ZeroThroughputBin);
        }
        Ok(())
    }

    /// Build the simulator for this scenario without running it.
    pub fn build_simulator(&self) -> Simulator {
        let topology = self.topology.build(self.n, self.seed);
        let weights = self.weights.clone().unwrap_or_else(|| vec![1.0; self.n]);
        let protocol = self.protocol;
        let phy = self.phy.clone();
        SimulatorBuilder::new(self.phy.clone(), topology)
            .seed(self.seed)
            .weights(weights.clone())
            .with_stations(move |i, _| protocol.station_policy(&phy, weights[i]))
            .ap_algorithm(self.protocol.ap_algorithm(&self.phy, self.update_period))
            .throughput_bin(self.throughput_bin)
            .capture_model(self.capture)
            .traffic(self.traffic)
            .build()
    }

    /// Run the scenario: warm up, reset measurements, measure, and summarise.
    ///
    /// With `WLAN_METRICS=1` the simulator runs with the kernel dispatch
    /// registry enabled, the result carries the controller's SA telemetry
    /// section, and the kernel report is folded into the process-wide
    /// [`metrics`](crate::metrics) registry. Telemetry is purely
    /// observational: every statistic of the result is byte-identical either
    /// way (only the extra `controller_telemetry` key is added).
    pub fn run(&self) -> ScenarioResult {
        self.run_counted().0
    }

    /// [`run`](Self::run), additionally returning the number of kernel events
    /// the job processed (always counted — the scheduler tallies it whether or
    /// not telemetry is on). The campaign executor uses the count to attribute
    /// events/sec to each job without touching the result's serialised form.
    pub fn run_counted(&self) -> (ScenarioResult, u64) {
        let telemetry = crate::metrics::metrics_enabled();
        let mut sim = self.build_simulator();
        if telemetry {
            sim.enable_metrics();
        }
        self.advance_until(&mut sim, self.end_time());
        if let Some(report) = sim.metrics_report() {
            crate::metrics::global().record_engine_report(&report);
        }
        let events = sim.events_processed();
        (self.collect_with_telemetry(&sim, telemetry), events)
    }

    /// The simulated time at which this scenario's run completes
    /// (warm-up + measurement).
    pub fn end_time(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.measure
    }

    /// Advance `sim` to `until`, applying the measurement reset at the
    /// warm-up boundary exactly as [`run`](Self::run) would.
    ///
    /// This is the checkpoint-aware inner loop of `run`: driving a simulator
    /// to [`end_time`](Self::end_time) through any sequence of
    /// `advance_until` calls — including across a
    /// [`Simulator::checkpoint`] / [`Simulator::resume`] round trip, which
    /// preserves [`Simulator::measurement_started_at`] and therefore whether
    /// the warm-up reset is still pending — is bit-identical to a
    /// straight-through run.
    pub fn advance_until(&self, sim: &mut Simulator, until: SimTime) {
        let warmup_end = SimTime::ZERO + self.warmup;
        if !self.warmup.is_zero() && sim.measurement_started_at() < warmup_end {
            let stop = until.min(warmup_end);
            if stop > sim.now() {
                sim.run_until(stop);
            }
            if sim.now() >= warmup_end {
                sim.reset_measurements();
            }
        }
        if until > sim.now() {
            sim.run_until(until);
        }
    }

    /// Summarise a simulator this scenario built and ran (through
    /// [`run`](Self::run), or through [`advance_until`](Self::advance_until)
    /// with or without checkpoint/resume cycles) into a [`ScenarioResult`].
    /// The controller-telemetry section follows the process-wide
    /// `WLAN_METRICS` knob; use
    /// [`collect_with_telemetry`](Self::collect_with_telemetry) to control it
    /// explicitly.
    pub fn collect(&self, sim: &Simulator) -> ScenarioResult {
        self.collect_with_telemetry(sim, crate::metrics::metrics_enabled())
    }

    /// [`collect`](Self::collect) with the controller-telemetry section
    /// explicitly on or off. Off (the default path) serialises exactly as
    /// before the telemetry layer existed — the key is absent, so golden
    /// fixtures and cached results are unchanged.
    pub fn collect_with_telemetry(
        &self,
        sim: &Simulator,
        controller_telemetry: bool,
    ) -> ScenarioResult {
        let hidden_pairs = sim.topology().num_hidden_pairs();
        let stats = sim.stats();
        let traffic = if sim.has_finite_load() {
            Some(TrafficSummary::from_run(sim, &stats, &self.phy))
        } else {
            None
        };
        let weights = sim.weights();
        let control_trace = sim
            .ap_algorithm()
            .control_trace()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v))
            .collect();
        let station_attempt_probabilities = (0..self.n)
            .map(|i| sim.station_attempt_probability(i))
            .collect();
        let mut result = ScenarioResult::from_stats(
            self.protocol.label().to_string(),
            self.n,
            hidden_pairs,
            &stats,
            &weights,
            control_trace,
            station_attempt_probabilities,
            traffic,
        );
        if controller_telemetry {
            let epochs = sim.ap_algorithm().telemetry();
            if !epochs.is_empty() {
                result.controller_telemetry = Some(ControllerTelemetry {
                    controller: sim.ap_algorithm().name().to_string(),
                    epochs: epochs
                        .iter()
                        .map(|&(t, e)| SaEpochRecord::at(t.as_secs_f64(), e))
                        .collect(),
                });
            }
        }
        result
    }
}

/// Finite-load metrics of one scenario run: offered vs carried load,
/// per-frame delay statistics, jitter, drops and queue occupancy. Present on
/// a [`ScenarioResult`] only when the scenario ran with a non-saturated
/// [`TrafficSpec`]; saturated runs omit it entirely (and serialise exactly
/// as before the traffic layer existed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficSummary {
    /// Offered load over the measured interval in Mbps
    /// (arrivals × payload bits / measured time).
    pub offered_mbps: f64,
    /// Mean per-frame delay (arrival → ACK) in milliseconds.
    pub mean_delay_ms: f64,
    /// Median per-frame delay in milliseconds (log-bucket resolution).
    pub p50_delay_ms: f64,
    /// 95th-percentile per-frame delay in milliseconds.
    pub p95_delay_ms: f64,
    /// 99th-percentile per-frame delay in milliseconds.
    pub p99_delay_ms: f64,
    /// Largest per-frame delay in milliseconds.
    pub max_delay_ms: f64,
    /// Pooled standard deviation of the per-frame delay in milliseconds.
    pub delay_stddev_ms: f64,
    /// Mean inter-frame delay variation (RFC 3550-style) in milliseconds.
    pub mean_jitter_ms: f64,
    /// Fraction of arrivals tail-dropped at full queues.
    pub drop_fraction: f64,
    /// Total frames generated over the measured interval.
    pub total_arrivals: u64,
    /// Total frames tail-dropped.
    pub total_drops: u64,
    /// Total frames delivered.
    pub total_delivered: u64,
    /// Frames already queued when the measured interval began (arrived
    /// during warm-up, still awaiting service). Closes the conservation
    /// identity `queued_at_start + total_arrivals == total_delivered +
    /// total_drops + queued_at_end`.
    pub queued_at_start: u64,
    /// Frames still queued when the run ended.
    pub queued_at_end: u64,
    /// Largest per-station queue length observed (frames, including the
    /// head-of-line frame in service).
    pub max_queue_high_water: u64,
}

impl TrafficSummary {
    /// Fold the simulator's per-station traffic counters into the summary.
    fn from_run(sim: &Simulator, stats: &SimStats, phy: &PhyParams) -> Self {
        let ms = |d: wlan_sim::SimDuration| d.as_secs_f64() * 1e3;
        let arrivals = stats.total_frame_arrivals();
        let delivered = stats.total_frames_delivered();
        let drops = stats.total_frame_drops();
        let hist = stats.frame_delay_histogram();
        let measured = stats.measured_time.as_secs_f64();
        let offered_mbps = if measured > 0.0 {
            arrivals as f64 * phy.payload_bits as f64 / measured / 1e6
        } else {
            0.0
        };
        // Pooled delay variance across stations from the per-station
        // Σdelay / Σdelay² accumulators.
        let (delay_sum, delay_sq, delay_max) =
            stats
                .nodes
                .iter()
                .fold((0.0f64, 0.0f64, 0.0f64), |(sum, sq, max), n| {
                    (
                        sum + n.traffic.delay_total.as_secs_f64(),
                        sq + n.traffic.delay_sq_s2,
                        max.max(n.traffic.delay_max.as_secs_f64()),
                    )
                });
        let delay_stddev_ms = if delivered >= 2 {
            let nf = delivered as f64;
            let mean = delay_sum / nf;
            ((delay_sq / nf - mean * mean).max(0.0) * nf / (nf - 1.0)).sqrt() * 1e3
        } else {
            0.0
        };
        TrafficSummary {
            offered_mbps,
            mean_delay_ms: ms(stats.mean_frame_delay()),
            p50_delay_ms: ms(hist.quantile(0.50)),
            p95_delay_ms: ms(hist.quantile(0.95)),
            p99_delay_ms: ms(hist.quantile(0.99)),
            max_delay_ms: delay_max * 1e3,
            delay_stddev_ms,
            mean_jitter_ms: ms(stats.mean_frame_jitter()),
            drop_fraction: if arrivals == 0 {
                0.0
            } else {
                drops as f64 / arrivals as f64
            },
            total_arrivals: arrivals,
            total_drops: drops,
            total_delivered: delivered,
            queued_at_start: stats.nodes.iter().map(|n| n.traffic.queued_at_start).sum(),
            queued_at_end: sim.total_queued_frames() as u64,
            max_queue_high_water: stats.max_queue_high_water(),
        }
    }
}

/// Summary of one scenario run — every quantity the paper's tables and figures use.
///
/// Serialisation is hand-written rather than derived for one reason: the
/// `traffic` field must be **omitted entirely** when absent (the vendored
/// serde has no `skip_serializing_if`), so saturated runs serialise
/// byte-identically to the pre-traffic-layer engine and the golden-trace
/// fixtures stay valid unmodified.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Protocol label.
    pub protocol: String,
    /// Number of stations.
    pub n: usize,
    /// Number of hidden station pairs in the generated topology.
    pub hidden_pairs: usize,
    /// System throughput in Mbps.
    pub throughput_mbps: f64,
    /// Per-station throughput in Mbps.
    pub per_node_mbps: Vec<f64>,
    /// Per-station throughput divided by the station's weight (Table II's
    /// "normalized throughput").
    pub normalized_mbps: Vec<f64>,
    /// Average idle slots per transmission observed at the AP (Table III).
    pub avg_idle_slots: f64,
    /// Fraction of busy periods that were collisions.
    pub collision_fraction: f64,
    /// Jain fairness index over raw per-station throughput.
    pub jain_index: f64,
    /// Jain fairness index over weight-normalised throughput.
    pub weighted_jain_index: f64,
    /// Throughput time series (seconds, Mbps, active stations).
    pub throughput_series: Vec<(f64, f64, usize)>,
    /// Controller control-variable trace (seconds, value), if the protocol has one.
    pub control_trace: Vec<(f64, f64)>,
    /// Final per-station attempt probabilities reported by the policies.
    pub station_attempt_probabilities: Vec<Option<f64>>,
    /// Finite-load metrics; `None` for saturated runs (and then omitted from
    /// the serialised form entirely).
    pub traffic: Option<TrafficSummary>,
    /// Controller SA-iterate telemetry; populated only when telemetry is
    /// requested (`WLAN_METRICS=1` or
    /// [`Scenario::collect_with_telemetry`]) *and* the protocol has an
    /// adaptive controller. Omitted from the serialised form when `None`, so
    /// default runs serialise exactly as before the telemetry layer existed.
    pub controller_telemetry: Option<ControllerTelemetry>,
}

/// The stochastic-approximation telemetry section of a [`ScenarioResult`]:
/// the controller's iterate trajectory, one record per completed measurement
/// segment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerTelemetry {
    /// The controller's name ([`wlan_sim::ApAlgorithm::name`]).
    pub controller: String,
    /// Per-update-epoch records, oldest first.
    pub epochs: Vec<SaEpochRecord>,
}

/// One serialised controller update epoch: a timestamped
/// [`wlan_sim::ControlEpoch`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaEpochRecord {
    /// Segment-close time in seconds of simulated time.
    pub time_s: f64,
    /// Optimiser iteration counter `k` after the segment.
    pub iteration: u64,
    /// Estimate of the optimal control variable (`pval`).
    pub estimate: f64,
    /// Probe value advertised for the next segment.
    pub probe: f64,
    /// Step gain `a_k` in effect after the segment.
    pub gain: f64,
    /// Perturbation width `b_k` in effect after the segment.
    pub perturbation: f64,
    /// Mean of the normalised observable over the segment window.
    pub window_mean: f64,
    /// Estimate change applied by the update; `None` for plus-side halves
    /// (awaiting the minus measurement).
    pub delta: Option<f64>,
}

impl SaEpochRecord {
    /// Timestamp a [`ControlEpoch`] for serialisation.
    pub fn at(time_s: f64, e: ControlEpoch) -> Self {
        SaEpochRecord {
            time_s,
            iteration: e.iteration,
            estimate: e.estimate,
            probe: e.probe,
            gain: e.gain,
            perturbation: e.perturbation,
            window_mean: e.window_mean,
            delta: e.delta,
        }
    }
}

impl Serialize for ScenarioResult {
    fn to_value(&self) -> serde::Value {
        let mut m: Vec<(String, serde::Value)> = vec![
            ("protocol".into(), self.protocol.to_value()),
            ("n".into(), self.n.to_value()),
            ("hidden_pairs".into(), self.hidden_pairs.to_value()),
            ("throughput_mbps".into(), self.throughput_mbps.to_value()),
            ("per_node_mbps".into(), self.per_node_mbps.to_value()),
            ("normalized_mbps".into(), self.normalized_mbps.to_value()),
            ("avg_idle_slots".into(), self.avg_idle_slots.to_value()),
            (
                "collision_fraction".into(),
                self.collision_fraction.to_value(),
            ),
            ("jain_index".into(), self.jain_index.to_value()),
            (
                "weighted_jain_index".into(),
                self.weighted_jain_index.to_value(),
            ),
            (
                "throughput_series".into(),
                self.throughput_series.to_value(),
            ),
            ("control_trace".into(), self.control_trace.to_value()),
            (
                "station_attempt_probabilities".into(),
                self.station_attempt_probabilities.to_value(),
            ),
        ];
        if let Some(traffic) = &self.traffic {
            m.push(("traffic".into(), traffic.to_value()));
        }
        if let Some(telemetry) = &self.controller_telemetry {
            m.push(("controller_telemetry".into(), telemetry.to_value()));
        }
        serde::Value::Map(m)
    }
}

impl Deserialize for ScenarioResult {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Map(m) = value else {
            return Err(serde::Error::custom(format!(
                "expected map for struct ScenarioResult, got {value:?}"
            )));
        };
        let field = |name: &str| serde::map_get(m, name);
        Ok(ScenarioResult {
            protocol: Deserialize::from_value(field("protocol")?)?,
            n: Deserialize::from_value(field("n")?)?,
            hidden_pairs: Deserialize::from_value(field("hidden_pairs")?)?,
            throughput_mbps: Deserialize::from_value(field("throughput_mbps")?)?,
            per_node_mbps: Deserialize::from_value(field("per_node_mbps")?)?,
            normalized_mbps: Deserialize::from_value(field("normalized_mbps")?)?,
            avg_idle_slots: Deserialize::from_value(field("avg_idle_slots")?)?,
            collision_fraction: Deserialize::from_value(field("collision_fraction")?)?,
            jain_index: Deserialize::from_value(field("jain_index")?)?,
            weighted_jain_index: Deserialize::from_value(field("weighted_jain_index")?)?,
            throughput_series: Deserialize::from_value(field("throughput_series")?)?,
            control_trace: Deserialize::from_value(field("control_trace")?)?,
            station_attempt_probabilities: Deserialize::from_value(field(
                "station_attempt_probabilities",
            )?)?,
            // Absent key (pre-traffic dumps, saturated runs) => None.
            traffic: match field("traffic") {
                Ok(v) => Deserialize::from_value(v)?,
                Err(_) => None,
            },
            // Absent key (untelemetered runs, older dumps) => None.
            controller_telemetry: match field("controller_telemetry") {
                Ok(v) => Deserialize::from_value(v)?,
                Err(_) => None,
            },
        })
    }
}

impl ScenarioResult {
    #[allow(clippy::too_many_arguments)]
    fn from_stats(
        protocol: String,
        n: usize,
        hidden_pairs: usize,
        stats: &SimStats,
        weights: &[f64],
        control_trace: Vec<(f64, f64)>,
        station_attempt_probabilities: Vec<Option<f64>>,
        traffic: Option<TrafficSummary>,
    ) -> Self {
        let per_node = stats.per_node_throughput_mbps();
        let normalized = per_node.iter().zip(weights).map(|(x, w)| x / w).collect();
        ScenarioResult {
            protocol,
            n,
            hidden_pairs,
            throughput_mbps: stats.system_throughput_mbps(),
            per_node_mbps: per_node,
            normalized_mbps: normalized,
            avg_idle_slots: stats.avg_idle_slots_per_transmission(),
            collision_fraction: stats.collision_fraction(),
            jain_index: stats.jain_fairness_index(),
            weighted_jain_index: stats.weighted_jain_fairness_index(weights),
            throughput_series: stats
                .throughput_series
                .iter()
                .map(|s: &ThroughputSample| (s.time.as_secs_f64(), s.bps / 1e6, s.active_nodes))
                .collect(),
            control_trace,
            station_attempt_probabilities,
            traffic,
            controller_telemetry: None,
        }
    }
}

/// Mean system throughput (Mbps) over a set of results.
pub fn mean_throughput(results: &[ScenarioResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.throughput_mbps).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(protocol: Protocol, topo: TopologySpec, n: usize) -> Scenario {
        Scenario::new(protocol, topo, n)
            .durations(SimDuration::from_millis(300), SimDuration::from_millis(700))
            .update_period(SimDuration::from_millis(50))
            .seed(7)
    }

    /// Pins the byte layout of a wTOP-CSMA cell's checkpoint, whose AP
    /// state is the controller's. The 802.11 counterpart sits next to
    /// `CHECKPOINT_VERSION` in `wlan-sim`'s `engine/snapshot.rs`.
    #[test]
    fn wtop_checkpoint_layout_is_pinned() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let mut sim = short(Protocol::WTopCsma, TopologySpec::FullyConnected, 5).build_simulator();
        sim.run_for(SimDuration::from_millis(300));
        let bytes = sim.checkpoint();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (6737, 8_921_435_601_779_368_268),
            "the checkpoint byte layout changed: bump CHECKPOINT_VERSION in wlan-sim, \
             then update this pin"
        );
    }

    #[test]
    fn controller_telemetry_is_optional_and_purely_observational() {
        let scenario = short(Protocol::WTopCsma, TopologySpec::FullyConnected, 6);
        // Default path: no telemetry section (WLAN_METRICS unset under test).
        let baseline = scenario.run();
        assert!(baseline.controller_telemetry.is_none(), "off by default");

        // Instrumented run: kernel metrics on, telemetry section requested.
        let mut sim = scenario.build_simulator();
        sim.enable_metrics();
        scenario.advance_until(&mut sim, scenario.end_time());
        let result = scenario.collect_with_telemetry(&sim, true);
        let telemetry = result
            .controller_telemetry
            .clone()
            .expect("wTOP-CSMA records SA telemetry");
        assert_eq!(telemetry.controller, "wTOP-CSMA");
        assert!(!telemetry.epochs.is_empty());
        // Finite-difference pairs: plus-side halves carry no delta, completed
        // iterations do; gains and perturbations are always positive.
        assert!(telemetry.epochs.iter().any(|e| e.delta.is_none()));
        assert!(telemetry.epochs.iter().any(|e| e.delta.is_some()));
        for e in &telemetry.epochs {
            assert!(e.probe > 0.0 && e.gain > 0.0 && e.perturbation > 0.0);
            assert!(e.estimate > 0.0 && e.iteration >= 2);
        }

        // Purely observational: stripping the section yields byte-identical
        // JSON to the untelemetered run.
        let mut stripped = result.clone();
        stripped.controller_telemetry = None;
        assert_eq!(
            serde_json::to_string_pretty(&stripped).unwrap(),
            serde_json::to_string_pretty(&baseline).unwrap()
        );

        // The section round-trips through the serde layer.
        let json = serde_json::to_string_pretty(&result).unwrap();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        let back = ScenarioResult::from_value(&value).unwrap();
        let back_t = back.controller_telemetry.expect("section survives");
        assert_eq!(back_t.epochs.len(), telemetry.epochs.len());
        assert_eq!(
            back_t.epochs.last().unwrap().iteration,
            telemetry.epochs.last().unwrap().iteration
        );
    }

    #[test]
    fn topology_specs_build_expected_layouts() {
        assert!(TopologySpec::FullyConnected
            .build(30, 1)
            .is_fully_connected());
        assert!(TopologySpec::Ring { radius: 8.0 }
            .build(30, 1)
            .is_fully_connected());
        let disc = TopologySpec::UniformDisc { radius: 20.0 }.build(30, 3);
        assert_eq!(disc.num_nodes(), 30);
        // A 36 m grid has hidden pairs at any density; a 10 m grid never does.
        assert!(!TopologySpec::Grid { side: 36.0 }
            .build(64, 1)
            .is_fully_connected());
        assert!(TopologySpec::Grid { side: 10.0 }
            .build(64, 1)
            .is_fully_connected());
        let clustered = TopologySpec::Clustered {
            clusters: 4,
            spread: 18.0,
            cluster_radius: 3.0,
        }
        .build(40, 9);
        assert_eq!(clustered.num_nodes(), 40);
        // Placement is seed-deterministic.
        let again = TopologySpec::Clustered {
            clusters: 4,
            spread: 18.0,
            cluster_radius: 3.0,
        }
        .build(40, 9);
        assert_eq!(clustered.positions(), again.positions());
    }

    #[test]
    fn static_ppersistent_scenario_runs() {
        let r = short(
            Protocol::StaticPPersistent { p: 0.02 },
            TopologySpec::FullyConnected,
            10,
        )
        .run();
        assert!(r.throughput_mbps > 5.0, "{}", r.throughput_mbps);
        assert_eq!(r.per_node_mbps.len(), 10);
        assert_eq!(r.hidden_pairs, 0);
        assert!(r.jain_index > 0.5);
    }

    #[test]
    fn standard_dcf_scenario_runs() {
        let r = short(
            Protocol::Standard80211,
            TopologySpec::Ring { radius: 8.0 },
            10,
        )
        .run();
        assert!(r.throughput_mbps > 5.0, "{}", r.throughput_mbps);
        assert!(r.collision_fraction > 0.0 && r.collision_fraction < 1.0);
    }

    #[test]
    fn adaptive_scenarios_produce_control_traces() {
        let r = short(Protocol::WTopCsma, TopologySpec::FullyConnected, 5).run();
        assert!(
            !r.control_trace.is_empty(),
            "wTOP should record its control variable"
        );
        let r = short(Protocol::ToraCsma, TopologySpec::FullyConnected, 5).run();
        assert!(
            !r.control_trace.is_empty(),
            "TORA should record its control variable"
        );
    }

    #[test]
    fn hidden_disc_reports_hidden_pairs() {
        let r = short(
            Protocol::StaticPPersistent { p: 0.02 },
            TopologySpec::UniformDisc { radius: 20.0 },
            20,
        )
        .seed(11)
        .run();
        assert!(
            r.hidden_pairs > 0,
            "expected hidden pairs in a 20 m disc with 20 nodes"
        );
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = short(Protocol::Standard80211, TopologySpec::FullyConnected, 6).run();
        let b = short(Protocol::Standard80211, TopologySpec::FullyConnected, 6).run();
        assert_eq!(a.throughput_mbps, b.throughput_mbps);
        assert_eq!(a.per_node_mbps, b.per_node_mbps);
    }

    #[test]
    fn run_seeds_aggregates() {
        let base = short(
            Protocol::StaticPPersistent { p: 0.03 },
            TopologySpec::FullyConnected,
            5,
        );
        let results = crate::campaign::run_seeds(&base, &[1, 2, 3]);
        assert_eq!(results.len(), 3);
        let mean = mean_throughput(&results);
        assert!(mean > 0.0);
        assert!(results
            .iter()
            .any(|r| (r.throughput_mbps - mean).abs() > 1e-12));
        assert_eq!(mean_throughput(&[]), 0.0);
    }

    #[test]
    fn saturated_results_serialise_without_a_traffic_key() {
        // The golden-trace contract: the traffic layer must be invisible in
        // the serialised form of a saturated run.
        let r = short(
            Protocol::StaticPPersistent { p: 0.03 },
            TopologySpec::FullyConnected,
            4,
        )
        .run();
        assert!(r.traffic.is_none());
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            !json.contains("\"traffic\""),
            "saturated JSON grew a traffic key"
        );
        // And deserialisation of a traffic-less dump yields None.
        let back: ScenarioResult = serde_json::from_str(&json).unwrap();
        assert!(back.traffic.is_none());
        assert_eq!(back.throughput_mbps, r.throughput_mbps);
        assert_eq!(back.per_node_mbps, r.per_node_mbps);
    }

    #[test]
    fn finite_load_results_carry_a_traffic_summary() {
        use wlan_sim::TrafficSpec;
        let r = short(
            Protocol::StaticPPersistent { p: 0.05 },
            TopologySpec::FullyConnected,
            5,
        )
        .traffic(TrafficSpec::poisson(100.0).with_queue_frames(32))
        .run();
        let t = r
            .traffic
            .as_ref()
            .expect("finite load must summarise traffic");
        assert!(t.total_arrivals > 0);
        assert!(t.total_delivered > 0);
        assert!(t.mean_delay_ms > 0.0);
        assert!(t.p95_delay_ms >= t.p50_delay_ms);
        assert!(t.p99_delay_ms >= t.p95_delay_ms);
        assert!(t.offered_mbps > 0.0);
        // Conservation at the system level.
        assert_eq!(
            t.queued_at_start + t.total_arrivals,
            t.total_delivered + t.total_drops + t.queued_at_end
        );
        // Light load: carried ≈ offered.
        assert!((r.throughput_mbps - t.offered_mbps).abs() / t.offered_mbps < 0.25);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"traffic\""));
        let back: ScenarioResult = serde_json::from_str(&json).unwrap();
        let bt = back.traffic.expect("round trip keeps the summary");
        assert_eq!(bt.total_arrivals, t.total_arrivals);
        assert_eq!(bt.queued_at_end, t.queued_at_end);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_nonsense() {
        use crate::error::ScenarioError;
        let good = Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 4);
        assert!(good.validate().is_ok());

        let mut zero_n = good.clone();
        zero_n.n = 0;
        assert_eq!(zero_n.validate(), Err(ScenarioError::ZeroStations));

        let mut short_weights = good.clone();
        short_weights.weights = Some(vec![1.0, 2.0]);
        assert_eq!(
            short_weights.validate(),
            Err(ScenarioError::WeightsLengthMismatch {
                expected: 4,
                got: 2
            })
        );

        let mut nan_weight = good.clone();
        nan_weight.weights = Some(vec![1.0, f64::NAN, 1.0, 1.0]);
        assert!(matches!(
            nan_weight.validate(),
            Err(ScenarioError::InvalidWeight { index: 1, .. })
        ));

        let mut bad_rate = good.clone();
        bad_rate.traffic = TrafficSpec::poisson(-5.0);
        assert!(matches!(
            bad_rate.validate(),
            Err(ScenarioError::InvalidTraffic(_))
        ));
        let mut nan_rate = good.clone();
        nan_rate.traffic = TrafficSpec::poisson(f64::NAN);
        assert!(matches!(
            nan_rate.validate(),
            Err(ScenarioError::InvalidTraffic(_))
        ));

        let mut zero_queue = good.clone();
        zero_queue.traffic = TrafficSpec::poisson(100.0);
        zero_queue.traffic.queue_frames = Some(0);
        assert!(matches!(
            zero_queue.validate(),
            Err(ScenarioError::InvalidTraffic(_))
        ));

        let mut zero_duration = good.clone();
        zero_duration.warmup = SimDuration::ZERO;
        zero_duration.measure = SimDuration::ZERO;
        assert_eq!(zero_duration.validate(), Err(ScenarioError::ZeroDuration));

        let mut zero_cw = good.clone();
        zero_cw.phy.cw_min = 0;
        assert!(matches!(
            zero_cw.validate(),
            Err(ScenarioError::InvalidPhy(_))
        ));

        let mut big_p = good.clone();
        big_p.protocol = Protocol::StaticPPersistent { p: 2.0 };
        assert_eq!(
            big_p.validate(),
            Err(ScenarioError::InvalidAttemptProbability(2.0))
        );

        // Table I has m = log2(1024 / 8) = 7, so j = 7 is one stage too far.
        let mut bad_stage = good.clone();
        bad_stage.protocol = Protocol::StaticRandomReset { stage: 7, p0: 0.5 };
        assert_eq!(
            bad_stage.validate(),
            Err(ScenarioError::InvalidResetStage {
                stage: 7,
                max_stage: 7
            })
        );
        bad_stage.protocol = Protocol::StaticRandomReset { stage: 6, p0: 0.5 };
        assert!(bad_stage.validate().is_ok());

        let mut nan_p0 = good.clone();
        nan_p0.protocol = Protocol::StaticRandomReset {
            stage: 0,
            p0: f64::NAN,
        };
        assert!(matches!(
            nan_p0.validate(),
            Err(ScenarioError::InvalidResetProbability(p0)) if p0.is_nan()
        ));

        let mut zero_bin = good.clone();
        zero_bin.throughput_bin = SimDuration::ZERO;
        assert_eq!(zero_bin.validate(), Err(ScenarioError::ZeroThroughputBin));
    }

    #[test]
    fn weights_flow_through_to_normalisation() {
        let r = short(Protocol::WTopCsma, TopologySpec::FullyConnected, 4)
            .weights(vec![1.0, 1.0, 2.0, 2.0])
            .run();
        for (i, (raw, norm)) in r.per_node_mbps.iter().zip(&r.normalized_mbps).enumerate() {
            let w = if i < 2 { 1.0 } else { 2.0 };
            assert!((raw / w - norm).abs() < 1e-12);
        }
    }
}
