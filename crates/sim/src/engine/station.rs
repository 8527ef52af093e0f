//! The station-MAC component: per-station DCF state, the carrier-sense state
//! each sensing class shares, and the component handlers for the two
//! station-addressed events (`TxStart`, `AckTimeout`).
//!
//! Carrier sensing is kept per [`SensingClass`], not per station: a class's
//! members sense the same transmissions, so one busy count freezes and
//! resumes all of them at once, and the contending members that see the
//! medium exactly as their class does count down on the class's idle-slot
//! clock — a transmission start or end costs O(adjacent classes), and only
//! the earliest member holds a backoff-tier timer. A station keeps its own
//! countdown (anchor, remaining slots, own timer) in the few cases where
//! the class clock cannot stand for it:
//!
//! * it began contending mid-idle, possibly off the slot grid, or its
//!   countdown was due at the instant its class froze — a *loose* member,
//!   folded back onto the clock at the next freeze or resume;
//! * its view differs from the class's — its own frame or the ACK of its
//!   own frame is on the air, counted by the class but not sensed by the
//!   station — or its policy observes every busy period: a *watcher*,
//!   notified individually of every change of its class's busy count.
//!
//! Every timer keeps the `(time, seq)` the per-station engine gave it: a
//! resume walk reserves one sequence number per station, and a member
//! armed by that walk — at once or later, when it becomes due — uses
//! `base + id`. Per-station hot state stays packed in one 56-byte
//! [`HotState`] record, apart from the cold `policy` / `rng` / `weight`
//! arrays touched only on draws and outcome notifications.

use super::apctl::ApControl;
use super::arrivals::TrafficSources;
use super::channel::{Channel, Transmission};
use super::event::Event;
use super::sensing::{Entry, SensingClass};
use super::{Ctx, EnginePeers, World, CHANNEL_ID};
use crate::backoff::{BackoffPolicy, Policy};
use crate::control::{BusyOutcome, ChannelObservation, ControlPayload};
use crate::phy::PhyParams;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, SensingClasses};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use wlan_des::snapshot::{SnapshotError, StateReader, StateWriter};
use wlan_des::{Component, Handle, TierId};

/// What a station is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The station is not participating (dynamic-membership scenarios).
    Inactive,
    /// The station is active but its frame queue is empty (finite-load
    /// traffic only — saturated stations never enter this state). It keeps
    /// sensing the medium (`idle_since` bookkeeping continues, and
    /// IdleSense-style observation policies keep observing) but neither
    /// contends nor draws backoff until a frame arrives.
    QueueEmpty,
    /// The station is counting down its backoff (possibly frozen by carrier sensing).
    Contending,
    /// The station is transmitting a data frame.
    Transmitting,
    /// The station finished its data frame and is waiting for the ACK.
    AwaitingAck,
}

/// Where a station's backoff countdown lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Countdown {
    /// No countdown (the station is not contending).
    None,
    /// An [`Entry`] on its class clock.
    Clock,
    /// Its own anchor and remaining slots, with its own timer.
    Own,
}

/// Sentinel for "no countdown anchored" in [`HotState::countdown_start`]
/// (`Option<SimTime>` would cost 8 more bytes per station; the sentinel value
/// is unreachable — it is ~584 years of simulated time).
const COUNTDOWN_NONE: SimTime = SimTime::from_nanos(u64::MAX);

/// Flag bit: the station's policy consumes channel observations (cached
/// [`BackoffPolicy::wants_observations`] — see that method's docs).
const FLAG_WANTS_OBS: u8 = 1 << 0;
/// Flag bit: the busy period currently being sensed contains a data frame.
const FLAG_BUSY_HAS_DATA: u8 = 1 << 1;
/// Flag bit: cached [`BackoffPolicy::redraw_on_resume`]. Like
/// `wants_observations`, this is sampled once at build time: every built-in
/// policy answers it constantly, and custom policies are documented to do the
/// same.
const FLAG_REDRAW_ON_RESUME: u8 = 1 << 2;
/// Flag bit: the station is on its class's watcher list.
const FLAG_WATCHER: u8 = 1 << 3;

/// Idle slots elapsed between `anchor` and `now` (0 before the anchor).
#[inline]
fn slots_since(now: SimTime, anchor: SimTime, slot: SimDuration) -> u64 {
    if now > anchor {
        now.duration_since(anchor).div_duration(slot)
    } else {
        0
    }
}

/// The per-station fields touched on medium transitions, packed into one
/// sub-cache-line record.
#[derive(Debug, Clone)]
pub(crate) struct HotState {
    /// The per-station state machine.
    pub phase: Phase,
    /// Cached policy capabilities, the busy-has-data bit, watcher membership.
    flags: u8,
    countdown: Countdown,
    /// The station's sensing class.
    class: u32,
    /// Transmissions its class counts that the station does not sense: its
    /// own data frame and the ACK of its own frame while they are on the
    /// air. Re-based at activation, so the station senses `busy - own`.
    own: i32,
    /// Own countdown: backoff slots still to be counted down.
    remaining_slots: u64,
    /// When this station's perceived medium last became idle, unless its
    /// class went idle after `idle_epoch` (see [`StationMac::idle_since`]).
    idle_since: SimTime,
    idle_epoch: u64,
    /// Own countdown: when it (re)starts, `idle_since + DIFS` or later;
    /// [`COUNTDOWN_NONE`] while frozen.
    countdown_start: SimTime,
    /// Generation counter lazily invalidating scheduled `AckTimeout` events.
    ack_gen: u64,
}

impl HotState {
    /// Whether the station is participating in the network.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.phase != Phase::Inactive
    }

    #[inline]
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    #[inline]
    fn set(&mut self, flag: u8, value: bool) {
        if value {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }

    /// Whether the station must be notified individually: its view is not
    /// its class's, or its policy observes every busy period.
    #[inline]
    fn needs_watching(&self) -> bool {
        self.is_active() && (self.own != 0 || self.has(FLAG_WANTS_OBS))
    }

    #[inline]
    fn class(&self) -> usize {
        self.class as usize
    }

    /// Append this record to a checkpoint. The flags byte and the countdown
    /// sentinel are written raw — both are plain state here, even though the
    /// flag capabilities are derived from the policy at build time.
    fn save(&self, writer: &mut StateWriter) {
        writer.put_u8(match self.phase {
            Phase::Inactive => 0,
            Phase::QueueEmpty => 1,
            Phase::Contending => 2,
            Phase::Transmitting => 3,
            Phase::AwaitingAck => 4,
        });
        writer.put_u8(self.flags);
        writer.put_u8(match self.countdown {
            Countdown::None => 0,
            Countdown::Clock => 1,
            Countdown::Own => 2,
        });
        writer.put_u32(self.own as u32);
        writer.put_u64(self.remaining_slots);
        writer.put_time(self.idle_since);
        writer.put_u64(self.idle_epoch);
        writer.put_time(self.countdown_start);
        writer.put_u64(self.ack_gen);
    }

    /// Restore a record written by [`save`](Self::save).
    fn load(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.phase = match reader.get_u8()? {
            0 => Phase::Inactive,
            1 => Phase::QueueEmpty,
            2 => Phase::Contending,
            3 => Phase::Transmitting,
            4 => Phase::AwaitingAck,
            tag => return Err(SnapshotError::custom(format!("unknown Phase tag {tag}"))),
        };
        self.flags = reader.get_u8()?;
        self.countdown = match reader.get_u8()? {
            0 => Countdown::None,
            1 => Countdown::Clock,
            2 => Countdown::Own,
            tag => {
                return Err(SnapshotError::custom(format!(
                    "unknown countdown tag {tag}"
                )))
            }
        };
        self.own = reader.get_u32()? as i32;
        self.remaining_slots = reader.get_u64()?;
        self.idle_since = reader.get_time()?;
        self.idle_epoch = reader.get_u64()?;
        self.countdown_start = reader.get_time()?;
        self.ack_gen = reader.get_u64()?;
        Ok(())
    }
}

/// MAC state for all stations: the hot records in one packed array, the cold
/// per-station data (policy, RNG stream, reporting weight, observation
/// accumulator) in parallel arrays, all indexed by [`NodeId`]. Stations are
/// only ever appended at build time, so the arrays stay index-aligned by
/// construction.
pub(crate) struct Stations {
    pub hot: Vec<HotState>,
    pub policy: Vec<Policy>,
    pub rng: Vec<ChaCha8Rng>,
    pub weight: Vec<f64>,
    /// Idle slots counted immediately before the busy period an observing
    /// station currently senses.
    pending_idle_slots: Vec<u64>,
}

impl Stations {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Stations {
            hot: Vec::with_capacity(n),
            policy: Vec::with_capacity(n),
            rng: Vec::with_capacity(n),
            weight: Vec::with_capacity(n),
            pending_idle_slots: Vec::with_capacity(n),
        }
    }

    /// Append one station (build time only).
    pub(crate) fn push(&mut self, policy: Policy, rng: ChaCha8Rng, weight: f64) {
        let mut flags = 0u8;
        if policy.wants_observations() {
            flags |= FLAG_WANTS_OBS;
        }
        if policy.redraw_on_resume() {
            flags |= FLAG_REDRAW_ON_RESUME;
        }
        self.hot.push(HotState {
            phase: Phase::Inactive,
            flags,
            countdown: Countdown::None,
            class: 0,
            own: 0,
            remaining_slots: 0,
            idle_since: SimTime::ZERO,
            idle_epoch: 0,
            countdown_start: COUNTDOWN_NONE,
            ack_gen: 0,
        });
        self.policy.push(policy);
        self.rng.push(rng);
        self.weight.push(weight);
        self.pending_idle_slots.push(0);
    }

    /// Number of stations.
    pub(crate) fn len(&self) -> usize {
        self.hot.len()
    }

    /// Append all mutable per-station state — hot record, observation
    /// accumulator, policy state and RNG stream position — to a checkpoint.
    /// The policy's name string is written alongside its state so a resume
    /// against a scenario that built different policies fails loudly
    /// instead of misinterpreting bytes.
    fn save(&self, writer: &mut StateWriter) {
        writer.put_usize(self.len());
        for node in 0..self.len() {
            self.hot[node].save(writer);
            writer.put_u64(self.pending_idle_slots[node]);
            writer.put_str(self.policy[node].name());
            self.policy[node].save_state(writer);
            writer.put_rng(&self.rng[node]);
        }
    }

    /// Restore state written by [`save`](Self::save) into freshly built
    /// stations (same scenario, so counts, weights and policy types match).
    fn load(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n = reader.get_usize()?;
        if n != self.len() {
            return Err(SnapshotError::custom(format!(
                "checkpoint has {n} stations, scenario built {}",
                self.len()
            )));
        }
        for node in 0..n {
            self.hot[node].load(reader)?;
            self.pending_idle_slots[node] = reader.get_u64()?;
            let name = reader.get_str()?;
            if name != self.policy[node].name() {
                return Err(SnapshotError::custom(format!(
                    "station {node}: checkpoint policy {name:?} does not match built policy {:?}",
                    self.policy[node].name()
                )));
            }
            self.policy[node].load_state(reader)?;
            self.rng[node] = reader.get_rng()?;
        }
        Ok(())
    }

    /// Whether the station is participating in the network.
    #[inline]
    pub(crate) fn is_active(&self, node: NodeId) -> bool {
        self.hot[node].is_active()
    }

    /// Draw `node`'s next backoff from its own policy and stream.
    #[inline]
    fn draw(&mut self, node: NodeId) -> u64 {
        let rng: &mut dyn RngCore = &mut self.rng[node];
        self.policy[node].next_backoff(rng)
    }
}

/// Bit-exact payload equality (a `-0.0` or NaN payload is not folded into
/// another value).
fn same_payload(a: &ControlPayload, b: &ControlPayload) -> bool {
    match (a, b) {
        (ControlPayload::None, ControlPayload::None) => true,
        (ControlPayload::AttemptProbability(x), ControlPayload::AttemptProbability(y)) => {
            x.to_bits() == y.to_bits()
        }
        (
            ControlPayload::RandomReset { p0: a, stage: s },
            ControlPayload::RandomReset { p0: b, stage: t },
        ) => a.to_bits() == b.to_bits() && s == t,
        _ => false,
    }
}

/// The station-MAC component: all per-station DCF state, the sensing
/// classes, and the sorted active-station list. Owns the backoff timer
/// tier; receives `TxStart` (from that tier) and `AckTimeout` (from the
/// general tier).
pub(crate) struct StationMac {
    pub(crate) stations: Stations,
    classes: Vec<SensingClass>,
    /// `adjacent[c]`: the classes that sense class `c`'s transmitters, `c`
    /// included.
    adjacent: Vec<Vec<usize>>,
    /// Every class (an ACK is sensed by all of them).
    all_classes: Vec<usize>,
    /// Ids of active stations, sorted ascending.
    pub(crate) active: Vec<NodeId>,
    /// The control payload every active station has applied, if known: a
    /// broadcast of the same payload is then a no-op for every policy
    /// (`on_control` only overwrites state derived from the payload), so
    /// the walk is skipped. Cleared when a station joins.
    control_applied: Option<ControlPayload>,
    /// The backoff timer tier this component owns.
    tier: TierId,
    channel: Handle<Channel>,
    ap: Handle<ApControl>,
    traffic: Handle<TrafficSources>,
}

impl StationMac {
    pub(crate) fn new(
        mut stations: Stations,
        classes: SensingClasses,
        tier: TierId,
        channel: Handle<Channel>,
        ap: Handle<ApControl>,
        traffic: Handle<TrafficSources>,
    ) -> Self {
        let mut state: Vec<SensingClass> = (0..classes.len())
            .map(|_| SensingClass::default())
            .collect();
        for (h, &c) in stations.hot.iter_mut().zip(&classes.class_of) {
            h.class = c as u32;
            state[c].redraws |= h.has(FLAG_REDRAW_ON_RESUME);
        }
        let n = stations.len();
        StationMac {
            stations,
            classes: state,
            all_classes: (0..classes.len()).collect(),
            adjacent: classes.adjacent,
            active: Vec::with_capacity(n),
            control_applied: None,
            tier,
            channel,
            ap,
            traffic,
        }
    }

    /// Append the MAC state to a checkpoint: the active list, every station
    /// and every sensing class.
    pub(crate) fn save(&self, writer: &mut StateWriter) {
        writer.put_usize(self.active.len());
        for &node in &self.active {
            writer.put_usize(node);
        }
        self.stations.save(writer);
        writer.put_usize(self.classes.len());
        for class in &self.classes {
            class.save(writer);
        }
    }

    /// Restore state written by [`save`](Self::save).
    pub(crate) fn load(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len = reader.get_usize()?;
        self.active.clear();
        for _ in 0..len {
            self.active.push(reader.get_usize()?);
        }
        self.stations.load(reader)?;
        let classes = reader.get_usize()?;
        if classes != self.classes.len() {
            return Err(SnapshotError::custom(format!(
                "checkpoint has {classes} sensing classes, scenario built {}",
                self.classes.len()
            )));
        }
        let n = self.stations.len();
        for class in &mut self.classes {
            class.load(reader, n)?;
        }
        self.control_applied = None;
        Ok(())
    }

    /// `node`'s sensing class.
    pub(crate) fn class_of(&self, node: NodeId) -> usize {
        self.stations.hot[node].class()
    }

    /// How many transmissions `node` currently senses.
    #[inline]
    fn view(&self, node: NodeId) -> i32 {
        let h = &self.stations.hot[node];
        self.classes[h.class()].busy as i32 - h.own
    }

    /// When `node`'s perceived medium last became idle (meaningful while it
    /// senses nothing). A watcher tracks this itself; any other member
    /// follows its class from the first class idle transition after its
    /// own last update.
    fn idle_since(&self, node: NodeId) -> SimTime {
        let h = &self.stations.hot[node];
        let class = &self.classes[h.class()];
        if h.has(FLAG_WATCHER) || h.idle_epoch == class.idle_epoch {
            h.idle_since
        } else {
            class.idle_since
        }
    }

    fn set_idle_since(&mut self, node: NodeId, t: SimTime) {
        let h = &mut self.stations.hot[node];
        h.idle_since = t;
        h.idle_epoch = self.classes[h.class()].idle_epoch;
    }

    /// Take `node`'s countdown off its class (it transmits, leaves, stops
    /// contending, or departs from the class view). Returns the remaining
    /// slots and the anchor (or [`COUNTDOWN_NONE`] while frozen) the
    /// per-station engine would hold; a countdown that was on the clock of
    /// an idle class gets its own timer when `keep_timer` is set.
    fn take_countdown(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        keep_timer: bool,
    ) -> (u64, SimTime) {
        let h = &mut self.stations.hot[node];
        let c = h.class();
        let countdown = std::mem::replace(&mut h.countdown, Countdown::None);
        let class = &mut self.classes[c];
        match countdown {
            Countdown::None => (0, COUNTDOWN_NONE),
            Countdown::Own => {
                if !h.has(FLAG_WATCHER) {
                    let i = class.loose.iter().position(|&v| v == node);
                    class.loose.swap_remove(i.expect("loose member missing"));
                }
                if !keep_timer {
                    ctx.cancel_timer(self.tier, node);
                }
                (h.remaining_slots, h.countdown_start)
            }
            Countdown::Clock => {
                let was_head = class.head_armed && class.head().is_some_and(|e| e.node() == node);
                let entry = class.remove(node);
                let remaining = entry.deadline - class.clock;
                if class.busy > 0 {
                    return (remaining, COUNTDOWN_NONE);
                }
                let anchor = class.anchor(phy.difs);
                let armed = class.head_armed;
                if was_head {
                    if !keep_timer {
                        ctx.cancel_timer(self.tier, node);
                    }
                    arm_head(class, phy, ctx, self.tier);
                } else if keep_timer && armed {
                    let seq = class.seq_base + node as u64;
                    ctx.arm_timer_at(self.tier, node, 0, anchor + phy.slot * remaining, seq);
                }
                (remaining, anchor)
            }
        }
    }

    /// Hand `node`'s own countdown (`remaining`, anchored at `anchor` or
    /// frozen) to its class: loose while anchored (its timer, if any, stays
    /// armed), on the clock while frozen.
    fn place_on_class(&mut self, node: NodeId, remaining: u64, anchor: SimTime) {
        let h = &mut self.stations.hot[node];
        let class = &mut self.classes[h.class()];
        h.remaining_slots = remaining;
        h.countdown_start = anchor;
        if anchor != COUNTDOWN_NONE {
            h.countdown = Countdown::Own;
            class.loose.push(node);
        } else {
            h.countdown = Countdown::Clock;
            class.heap.push(Entry::new(
                class.clock + remaining,
                node,
                h.has(FLAG_REDRAW_ON_RESUME),
            ));
        }
    }

    /// Move `node` on or off its class's watcher list after its `own` count
    /// or activity changed, carrying its idle time and countdown across.
    fn sync_watching(&mut self, phy: &PhyParams, ctx: &mut Ctx<'_>, node: NodeId) {
        let h = &self.stations.hot[node];
        let (wanted, watching) = (h.needs_watching(), h.has(FLAG_WATCHER));
        if wanted == watching {
            return;
        }
        let c = h.class();
        if wanted {
            let idle = self.idle_since(node);
            let countdown = self.stations.hot[node].countdown;
            let (remaining, anchor) = self.take_countdown(phy, ctx, node, true);
            let h = &mut self.stations.hot[node];
            h.idle_since = idle;
            h.set(FLAG_WATCHER, true);
            if countdown != Countdown::None {
                h.countdown = Countdown::Own;
                h.remaining_slots = remaining;
                h.countdown_start = anchor;
            }
            self.classes[c].watchers.push(node);
        } else {
            let watchers = &mut self.classes[c].watchers;
            let i = watchers.iter().position(|&v| v == node);
            watchers.swap_remove(i.expect("watcher missing"));
            let epoch = self.classes[c].idle_epoch;
            let h = &mut self.stations.hot[node];
            h.set(FLAG_WATCHER, false);
            h.idle_epoch = epoch;
            if h.is_active() && h.countdown == Countdown::Own {
                let (remaining, anchor) = (h.remaining_slots, h.countdown_start);
                self.place_on_class(node, remaining, anchor);
            }
        }
    }

    /// A transmission from a station in class `from` (or, with `None`, an
    /// ACK, which every station senses) goes on the air. `source` — the
    /// transmitter, or the station whose frame is being acknowledged —
    /// counts it as its own.
    pub(crate) fn medium_busy(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        from: Option<usize>,
        source: NodeId,
        is_data: bool,
    ) {
        let now = ctx.now();
        self.stations.hot[source].own += 1;
        self.sync_watching(phy, ctx, source);
        let classes = from.map_or(&self.all_classes, |c| &self.adjacent[c]);
        for &c in classes {
            let class = &mut self.classes[c];
            class.busy += 1;
            if class.busy == 1 {
                freeze(class, &mut self.stations, phy, ctx, self.tier, now);
            }
            let busy = class.busy as i32;
            for &w in &class.watchers {
                if w == source {
                    continue;
                }
                let h = &mut self.stations.hot[w];
                if busy - h.own > 1 {
                    if is_data {
                        h.flags |= FLAG_BUSY_HAS_DATA;
                    }
                    continue;
                }
                // The watcher's medium goes idle -> busy.
                h.set(FLAG_BUSY_HAS_DATA, is_data);
                if h.has(FLAG_WANTS_OBS) {
                    self.stations.pending_idle_slots[w] =
                        slots_since(now, h.idle_since + phy.difs, phy.slot);
                }
                if h.phase == Phase::Contending && h.countdown_start != COUNTDOWN_NONE {
                    let elapsed = slots_since(now, h.countdown_start, phy.slot);
                    if elapsed < h.remaining_slots {
                        h.remaining_slots -= elapsed;
                        h.countdown_start = COUNTDOWN_NONE;
                        ctx.cancel_timer(self.tier, w);
                    }
                    // Otherwise the station's TxStart is due at exactly this
                    // instant (or, with zero slots, at its anchor): it stays
                    // armed, so simultaneous transmissions collide.
                }
            }
        }
    }

    /// A transmission counted by [`medium_busy`](Self::medium_busy) ends.
    /// Classes whose medium goes idle resume; every station armed by this
    /// walk uses `seq_base + id`. With `ack_follows` the AP re-freezes
    /// every class at `now + SIFS`, before any countdown of one or more
    /// slots can expire (`now + DIFS + slot`), so those timers are elided —
    /// the backoff is still redrawn (the RNG stream must not change). A
    /// zero-slot countdown still arms: its expiry at `now + DIFS` survives
    /// the ACK freeze (`elapsed 0 >= remaining 0`).
    ///
    /// `provisional` (with `ack_follows`, when no other ACK can be pending)
    /// marks the class clocks' redraws as certain to be overwritten by the
    /// redraw at the `AckEnd` unless zero: nothing reads a frozen clock
    /// deadline before then, since only the acknowledged station's view
    /// changes. Those draws only decide zero or not (the stream advances
    /// exactly as for a full draw).
    pub(crate) fn medium_idle(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        from: Option<usize>,
        source: NodeId,
        ack_follows: bool,
        provisional: bool,
    ) {
        let now = ctx.now();
        let seq_base = ctx.reserve_seqs(self.stations.len() as u64);
        self.stations.hot[source].own -= 1;
        let classes = from.map_or(&self.all_classes, |c| &self.adjacent[c]);
        for &c in classes {
            let class = &mut self.classes[c];
            class.busy -= 1;
            if class.busy == 0 {
                resume(
                    class,
                    &mut self.stations,
                    ctx,
                    self.tier,
                    now,
                    seq_base,
                    provisional,
                );
                if class
                    .head()
                    .is_some_and(|h| !ack_follows || h.deadline == class.clock)
                {
                    arm_head(class, phy, ctx, self.tier);
                }
            }
            let (busy, epoch) = (class.busy as i32, class.idle_epoch);
            for &w in &class.watchers {
                if w == source || busy - self.stations.hot[w].own != 0 {
                    continue;
                }
                // The watcher's medium goes busy -> idle.
                let st = &mut self.stations;
                let h = &mut st.hot[w];
                h.idle_since = now;
                h.idle_epoch = epoch;
                let contending = h.phase == Phase::Contending;
                if h.has(FLAG_BUSY_HAS_DATA) && h.has(FLAG_WANTS_OBS) {
                    let obs = ChannelObservation {
                        idle_slots: st.pending_idle_slots[w],
                        own_transmission: false,
                        outcome: BusyOutcome::Unknown,
                    };
                    st.policy[w].on_observation(&obs);
                }
                if !contending {
                    continue;
                }
                if st.hot[w].has(FLAG_REDRAW_ON_RESUME) {
                    // Memoryless (p-persistent) policies attempt independently
                    // in every idle slot; resuming the frozen counter would
                    // bias the first post-busy slot.
                    st.hot[w].remaining_slots = st.draw(w);
                }
                let h = &mut st.hot[w];
                let start = now + phy.difs;
                h.countdown_start = start;
                if !ack_follows || h.remaining_slots == 0 {
                    // A zero-slot timer left armed by the same-instant rule
                    // may still be pending: replace it.
                    ctx.cancel_timer(self.tier, w);
                    let fire = start + phy.slot * h.remaining_slots;
                    ctx.arm_timer_at(self.tier, w, 0, fire, seq_base + w as u64);
                }
            }
        }
        self.sync_watching(phy, ctx, source);
    }

    /// Enter the contention phase: draw a fresh backoff and, if the medium is
    /// idle, arm the transmission timer. Under finite load a station with an
    /// empty queue parks in `QueueEmpty` instead — no backoff is drawn and
    /// no timer armed until the next frame arrival restarts contention.
    ///
    /// `has_frame` is the caller-supplied answer to "does `node` have a frame
    /// to send?" (always true without a traffic layer; queried from the
    /// traffic component otherwise) — passed in because the traffic state
    /// lives in a peer component.
    pub(crate) fn begin_contention(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        has_frame: bool,
    ) {
        if !self.stations.is_active(node) {
            return;
        }
        if !has_frame {
            self.stations.hot[node].phase = Phase::QueueEmpty;
            return;
        }
        let drawn = self.stations.draw(node);
        self.stations.hot[node].phase = Phase::Contending;
        let anchor = if self.view(node) == 0 {
            let now = ctx.now();
            let start = self.idle_since(node) + phy.difs;
            let start = if start > now { start } else { now };
            ctx.arm_timer(self.tier, node, 0, start + phy.slot * drawn);
            start
        } else {
            COUNTDOWN_NONE
        };
        let h = &mut self.stations.hot[node];
        if h.has(FLAG_WATCHER) {
            h.countdown = Countdown::Own;
            h.remaining_slots = drawn;
            h.countdown_start = anchor;
        } else {
            self.place_on_class(node, drawn, anchor);
        }
    }

    /// Bring an inactive station into the network, sensing `sensed`
    /// transmissions, and return whether it was inactive (contention is
    /// started by the caller, after the traffic layer).
    pub(crate) fn activate(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        sensed: u32,
    ) -> bool {
        if self.stations.is_active(node) {
            return false;
        }
        let busy = self.classes[self.stations.hot[node].class()].busy;
        let h = &mut self.stations.hot[node];
        h.phase = Phase::Contending;
        h.own = busy as i32 - sensed as i32;
        self.set_idle_since(node, ctx.now());
        self.sync_watching(phy, ctx, node);
        if let Err(pos) = self.active.binary_search(&node) {
            self.active.insert(pos, node);
        }
        self.control_applied = None;
        true
    }

    /// Remove a station from the network: its countdown and timer go, a
    /// pending ACK timeout turns stale.
    pub(crate) fn deactivate(&mut self, phy: &PhyParams, ctx: &mut Ctx<'_>, node: NodeId) -> bool {
        if !self.stations.is_active(node) {
            return false;
        }
        self.take_countdown(phy, ctx, node, false);
        let h = &mut self.stations.hot[node];
        h.phase = Phase::Inactive;
        h.ack_gen += 1;
        self.sync_watching(phy, ctx, node);
        if let Ok(pos) = self.active.binary_search(&node) {
            self.active.remove(pos);
        }
        true
    }

    /// A frame of `node`'s ended (`TxEnd`, after the medium walk): it starts
    /// waiting for the ACK, unless it left the network meanwhile.
    pub(crate) fn await_ack(
        &mut self,
        phy: &PhyParams,
        ctx: &mut Ctx<'_>,
        node: NodeId,
    ) -> Option<u64> {
        if !self.stations.is_active(node) {
            return None;
        }
        // A station that rejoined while its frame was on the air has been
        // contending since; that countdown is abandoned.
        self.take_countdown(phy, ctx, node, false);
        if self.view(node) == 0 {
            self.set_idle_since(node, ctx.now());
        }
        let h = &mut self.stations.hot[node];
        h.phase = Phase::AwaitingAck;
        h.ack_gen += 1;
        Some(h.ack_gen)
    }

    /// The ACK for `dest` arrived (`AckEnd`): if it is still waiting for it,
    /// report the success to its policy and return true.
    pub(crate) fn deliver_ack(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) -> bool {
        if self.stations.hot[dest].phase != Phase::AwaitingAck {
            return false;
        }
        let st = &mut self.stations;
        st.hot[dest].ack_gen += 1; // cancel the pending timeout
        let rng: &mut dyn RngCore = &mut st.rng[dest];
        st.policy[dest].on_success(rng);
        if self.view(dest) == 0 {
            self.set_idle_since(dest, ctx.now());
        }
        true
    }

    /// Deliver a control payload (ACK piggyback or beacon) to every active
    /// station.
    pub(crate) fn broadcast_control(&mut self, payload: &ControlPayload) {
        if payload.is_none()
            || self
                .control_applied
                .is_some_and(|applied| same_payload(&applied, payload))
        {
            return;
        }
        for &node in &self.active {
            self.stations.policy[node].on_control(payload);
        }
        self.control_applied = Some(*payload);
    }

    /// A station's backoff timer fired: start transmitting.
    fn handle_tx_start(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        node: NodeId,
    ) {
        let h = &self.stations.hot[node];
        debug_assert!(h.phase == Phase::Contending && h.countdown != Countdown::None);
        // A timer is armed only for a countdown that is running or due at
        // this instant. `medium_busy` may have counted a transmission that
        // started at exactly this instant: this station's counter still
        // reached zero in the same slot and both transmit (that is precisely
        // how same-slot collisions happen).
        if h.countdown == Countdown::Clock {
            let class = &mut self.classes[h.class()];
            let head = class.heap.pop().expect("fired clock without a head");
            debug_assert_eq!(head.node(), node);
            class.head_armed = false;
            self.stations.hot[node].countdown = Countdown::None;
        } else {
            self.take_countdown(&world.phy, ctx, node, true);
        }
        let now = ctx.now();
        let airtime = world.phy.data_airtime();
        let end = now + airtime;
        let payload_bits = world.phy.payload_bits;

        // Reception bookkeeping: each pair of overlapping frames interferes with the
        // other; a frame overlapping an AP transmission is lost outright. Whether an
        // interfered frame is still decodable is decided at TxEnd by the capture
        // model (without one, any interference is fatal — the paper's model).
        let rx_power = match &world.capture {
            Some(c) => c.received_power(world.topology.distance_to_ap(node)),
            None => 1.0,
        };
        let tx = {
            let channel = peers.get_mut(self.channel);
            let collided = channel.ap_transmitting;
            let mut interference = 0.0;
            for &id in &channel.active_tx {
                let other = channel.txs.get_mut(id);
                interference += other.rx_power;
                other.interference += rx_power;
            }
            let tx = channel.txs.insert(Transmission {
                source: node,
                start: now,
                payload_bits,
                rx_power,
                interference,
                collided,
            });
            channel.active_tx.push(tx);
            tx
        };
        world.stats.nodes[node].attempts += 1;
        self.stations.hot[node].phase = Phase::Transmitting;

        ctx.schedule(end, CHANNEL_ID, Event::TxEnd { tx });

        // The classes that sense the transmitter see the medium go busy.
        let class = self.stations.hot[node].class();
        self.medium_busy(&world.phy, ctx, Some(class), node, true);
        peers
            .get_mut(self.ap)
            .channel_busy_start(&world.phy, &mut world.stats, now, true);
    }

    /// A station gave up waiting for its ACK (unless the timeout is stale).
    fn handle_ack_timeout(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        node: NodeId,
        gen: u64,
    ) {
        {
            let h = &self.stations.hot[node];
            if h.phase != Phase::AwaitingAck || h.ack_gen != gen {
                return; // stale timeout (the ACK arrived)
            }
        }
        world.stats.nodes[node].failures += 1;
        {
            let st = &mut self.stations;
            let rng: &mut dyn RngCore = &mut st.rng[node];
            st.policy[node].on_failure(rng);
        }
        let has_frame = peers.get(self.traffic).has_frame(node);
        self.begin_contention(&world.phy, ctx, node, has_frame);
    }
}

/// Arm the head's timer at its position in the last resume walk's sequence
/// block (the class is idle).
#[inline]
fn arm_head(class: &mut SensingClass, phy: &PhyParams, ctx: &mut Ctx<'_>, tier: TierId) {
    class.head_armed = false;
    if let Some(head) = class.head() {
        let fire = class.anchor(phy.difs) + phy.slot * (head.deadline - class.clock);
        let seq = class.seq_base + head.node() as u64;
        ctx.arm_timer_at(tier, head.node(), 0, fire, seq);
        class.head_armed = true;
    }
}

/// The class's medium goes idle -> busy at `now`: advance its clock by the
/// idle slots since the anchor. Loose members fold onto the clock unless
/// due at this instant; clock members due at this instant (or, with zero
/// slots, at the anchor) leave it with their own timers at the sequence
/// numbers of the last resume; the rest freeze with no timer at all.
#[inline]
fn freeze(
    class: &mut SensingClass,
    st: &mut Stations,
    phy: &PhyParams,
    ctx: &mut Ctx<'_>,
    tier: TierId,
    now: SimTime,
) {
    if class.heap.is_empty() && class.loose.is_empty() {
        return; // no countdown reads the clock
    }
    let anchor = class.anchor(phy.difs);
    let start_clock = class.clock;
    let mut armed = class.head().filter(|_| class.head_armed).map(|e| e.node());
    class.head_armed = false;
    class.clock += slots_since(now, anchor, phy.slot);
    let mut i = 0;
    while i < class.loose.len() {
        let v = class.loose[i];
        let h = &mut st.hot[v];
        let elapsed = slots_since(now, h.countdown_start, phy.slot);
        if elapsed >= h.remaining_slots {
            i += 1;
            continue;
        }
        class.loose.swap_remove(i);
        ctx.cancel_timer(tier, v);
        h.countdown = Countdown::Clock;
        class.heap.push(Entry::new(
            class.clock + h.remaining_slots - elapsed,
            v,
            h.has(FLAG_REDRAW_ON_RESUME),
        ));
    }
    while let Some(due) = class.heap.peek().copied() {
        if due.deadline > class.clock {
            break;
        }
        class.heap.pop();
        let remaining = due.deadline - start_clock;
        if armed == Some(due.node()) {
            armed = None;
        } else {
            let seq = class.seq_base + due.node() as u64;
            ctx.arm_timer_at(tier, due.node(), 0, anchor + phy.slot * remaining, seq);
        }
        let h = &mut st.hot[due.node()];
        h.countdown = Countdown::Own;
        h.countdown_start = anchor;
        h.remaining_slots = remaining;
        class.loose.push(due.node());
    }
    if let Some(head) = armed {
        ctx.cancel_timer(tier, head);
    }
}

/// The class's medium goes busy -> idle at `now`, in the walk whose
/// sequence block starts at `seq_base`: due members that did not fire
/// rejoin the clock and redrawing policies redraw (per-station streams, so
/// the order across members is immaterial) — `provisional` draws keep only
/// zero exact and park every other count one slot out (see
/// [`StationMac::medium_idle`]). The caller arms the head.
#[inline]
fn resume(
    class: &mut SensingClass,
    st: &mut Stations,
    ctx: &mut Ctx<'_>,
    tier: TierId,
    now: SimTime,
    seq_base: u64,
    provisional: bool,
) {
    class.idle_since = now;
    class.idle_epoch += 1;
    class.seq_base = seq_base;
    for v in class.loose.drain(..) {
        ctx.cancel_timer(tier, v);
        let h = &mut st.hot[v];
        h.countdown = Countdown::Clock;
        let entry = Entry::new(
            class.clock + h.remaining_slots,
            v,
            h.has(FLAG_REDRAW_ON_RESUME),
        );
        class.heap.push(entry);
    }
    if !class.redraws {
        return;
    }
    let mut entries = std::mem::take(&mut class.heap).into_vec();
    for e in entries.iter_mut().filter(|e| e.redraw) {
        let slots = if provisional {
            let rng: &mut dyn RngCore = &mut st.rng[e.node()];
            u64::from(!st.policy[e.node()].next_backoff_is_zero(rng))
        } else {
            st.draw(e.node())
        };
        e.deadline = class.clock + slots;
    }
    class.heap = entries.into();
}

impl Component<World, Event> for StationMac {
    fn handle(
        &mut self,
        world: &mut World,
        peers: &mut EnginePeers<'_>,
        ctx: &mut Ctx<'_>,
        event: Event,
    ) {
        match event {
            Event::TxStart { station } => self.handle_tx_start(world, peers, ctx, station),
            Event::AckTimeout { station, gen } => {
                self.handle_ack_timeout(world, peers, ctx, station, gen)
            }
            other => unreachable!("station MAC received {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_state_fits_one_cache_line() {
        // The medium-transition paths touch one packed record per station
        // they notify.
        assert!(
            std::mem::size_of::<HotState>() <= 56,
            "HotState is {} bytes (documented budget: 56, hard ceiling: one 64-byte line)",
            std::mem::size_of::<HotState>()
        );
    }
}
