//! Structural regression test for the PR 6 engine decomposition.
//!
//! The engine facade (`crates/sim/src/engine/mod.rs`) used to be a
//! 1,767-line monolith whose core was a single `match event` over every
//! MAC/channel/AP/traffic event. That match now lives in four plug-in
//! components dispatched through the `wlan-des` component registry, and
//! this test pins the shape so the monolith cannot silently grow back:
//! the facade must stay a facade (bounded size, no event match of its
//! own, wired through `Simulation::add_component`), and each component
//! file must keep handling its events itself.

const ENGINE_MOD: &str = include_str!("../crates/sim/src/engine/mod.rs");

/// The facade may hold the builder, the wiring, and the query surface —
/// but not handler logic. Its size is pinned with headroom over the
/// current ~670 lines (docs included); the pre-refactor monolith was
/// 1,767 lines, so any re-absorption of a component trips this long
/// before it gets that far.
#[test]
fn engine_mod_stays_a_facade() {
    let lines = ENGINE_MOD.lines().count();
    assert!(
        lines < 750,
        "crates/sim/src/engine/mod.rs has grown to {lines} lines (budget 750); \
         move event-handling logic into a component instead of the facade"
    );
}

/// The facade must not contain an event match: dispatch goes through the
/// component registry (`Simulation::add_component` + per-component
/// `Component::handle`), never through a central `match event`.
#[test]
fn engine_mod_has_no_event_match() {
    assert!(
        !ENGINE_MOD.contains("match event"),
        "engine/mod.rs contains a `match event` — the monolithic dispatch is growing back"
    );
    assert!(
        ENGINE_MOD.contains("add_component"),
        "engine/mod.rs no longer wires components through the registry"
    );
}

/// Each mechanism named by the decomposition keeps its own component file
/// implementing the kernel's `Component` trait, traffic arrivals and the AP
/// controller included.
#[test]
fn mechanisms_are_components() {
    for (name, src) in [
        (
            "station.rs",
            include_str!("../crates/sim/src/engine/station.rs"),
        ),
        (
            "channel.rs",
            include_str!("../crates/sim/src/engine/channel.rs"),
        ),
        (
            "apctl.rs",
            include_str!("../crates/sim/src/engine/apctl.rs"),
        ),
        (
            "arrivals.rs",
            include_str!("../crates/sim/src/engine/arrivals.rs"),
        ),
    ] {
        assert!(
            src.contains("impl Component<World, Event> for"),
            "engine/{name} no longer implements the kernel Component trait"
        );
    }
}
