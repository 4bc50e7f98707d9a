//! Cross-backend checkpoint translation: resume a simulator checkpoint on a
//! cluster backend (the threaded driver or the process cluster) and vice versa.
//!
//! The two cluster backends run one worker loop (`crate::worker`) over one
//! shared-state setup and write their images through one function
//! (`crate::threaded::ClusterCore`), so `backend threaded` and `backend process`
//! name a single layout: either driver resumes either tag as it is, and only the
//! simulator's layout needs translating.
//!
//! Both layouts checkpoint at the same place — a round boundary after round
//! `ckpt.round` — and agree on every *durable* quantity: per-worker parameter
//! replicas, optimizer and `Δ(g_i)` tracker state, the synchronized global
//! vector, the δ-policy state and the trace prefix. What differs is the
//! bookkeeping each backend keeps around that shared core:
//!
//! * the simulator stores cluster-level aggregates (LSSR, cost-model time,
//!   bytes, eval history, its sampling RNG cursor), while
//! * the threaded driver stores per-worker LSSR counters and the parameter
//!   server's wire-level state (newest-global guard, snapshot ring).
//!
//! The translators below map one layout onto the other. Schedule-pure cursors
//! (data-shard position, forward counter, presence edges) are recomputed from
//! the configuration exactly as the target backend's own resume path would.
//! Quantities only one backend measures are rebuilt best-effort:
//!
//! * **sim → threaded**: each worker's `last_loss` is seeded with the cluster's
//!   last train loss (overwritten at the worker's first post-resume present
//!   round), and a scheduled-rejoin snapshot ring is reconstructed with only
//!   the *latest* synchronized snapshot — a rejoin that needs an older ring
//!   entry than the last pre-resume sync is outside the translated image.
//! * **threaded → sim**: the cost-model aggregates (simulated compute/comm
//!   seconds, bytes) and the eval history restart from zero — the threaded
//!   driver never computes them. Schedule-level facts (sync rounds, LSSR,
//!   losses, `Δ` state, the trace) carry over exactly, so the resumed run's
//!   event log and synchronization schedule still match an uninterrupted
//!   simulator run byte for byte on crash-free schedules.
//!
//! `tests/ps_fault_parity.rs` pins both directions across a PS-outage schedule.

use crate::checkpoint::{Checkpoint, Section};
use crate::config::{RejoinPull, TrainConfig};
use crate::sim;
use selsync_comm::ps::{PsState, RingState, DEFAULT_SNAPSHOT_DEPTH};
use selsync_nn::model::PaperModel;
use selsync_tensor::rng;
use std::borrow::Cow;

/// Pack a parameter server's exported state into the checkpoint `ps` section —
/// the single packing both the threaded driver and the process hub write, and
/// the mirror of [`read_ps_state`].
pub(crate) fn ps_section(state: &PsState) -> Section {
    let mut section = Section::new("ps");
    section.push_f32s(&state.global);
    section.push_opt_int(state.last_global_round);
    section.push_bool(state.ring.is_some());
    if let Some(ring) = &state.ring {
        section.push_usize(ring.depth);
        section.push_f32s(&ring.initial);
        section.push_usize(ring.entries.len());
        for (round, mean) in &ring.entries {
            section.push_int(*round);
            section.push_f32s(mean);
        }
        section.push_opt_int(ring.evicted_min);
    }
    section
}

/// Read a checkpoint's `ps` section back into a restorable [`PsState`].
pub(crate) fn read_ps_state(ckpt: &Checkpoint) -> PsState {
    let mut reader = ckpt.read_section("ps");
    let global = reader.f32s();
    let last_global_round = reader.opt_int();
    let ring = if reader.bool() {
        let depth = reader.usize();
        let initial = reader.f32s();
        let count = reader.usize();
        let entries = (0..count)
            .map(|_| {
                let round = reader.int();
                let mean = reader.f32s();
                (round, mean)
            })
            .collect();
        let evicted_min = reader.opt_int();
        Some(RingState {
            depth,
            initial,
            entries,
            evicted_min,
        })
    } else {
        None
    };
    reader.finish();
    PsState {
        global,
        last_global_round,
        ring,
    }
}

/// Whether `tag` names a cluster backend — the threaded driver or the process
/// cluster, which read and write one image layout.
pub fn is_cluster_backend(tag: &str) -> bool {
    matches!(tag, "threaded" | "process")
}

/// The image a cluster driver resumes from, whatever backend wrote `ckpt`: a
/// cluster image as it is, a simulator image translated by [`sim_to_threaded`].
/// Panics on any other tag and on a configuration mismatch — resuming under a
/// different config is always a bug, never a recoverable condition.
pub(crate) fn cluster_image<'a>(cfg: &TrainConfig, ckpt: &'a Checkpoint) -> Cow<'a, Checkpoint> {
    assert_eq!(
        ckpt.fingerprint,
        crate::checkpoint::config_fingerprint(cfg),
        "checkpoint belongs to a different configuration"
    );
    if ckpt.backend == "sim" {
        return Cow::Owned(sim_to_threaded(cfg, ckpt));
    }
    assert!(
        is_cluster_backend(&ckpt.backend),
        "checkpoint was written by the unknown {:?} backend",
        ckpt.backend
    );
    Cow::Borrowed(ckpt)
}

/// The length of worker `w`'s circular data traversal (its IID partition or
/// its non-IID label shard) — the modulus the schedule-pure shard cursor is
/// recomputed under.
fn traversal_len(cfg: &TrainConfig, w: usize) -> usize {
    let (train, _) = sim::build_datasets(cfg);
    let model = PaperModel::build(cfg.model, cfg.seed);
    let iid_order = sim::iid_sample_order(&train, &model.task);
    sim::worker_traversal(cfg, &train, &iid_order, w).len()
}

/// Translate a simulator checkpoint into the threaded driver's layout, so
/// `run_threaded` can resume a run the sequential simulator started.
pub fn sim_to_threaded(cfg: &TrainConfig, ckpt: &Checkpoint) -> Checkpoint {
    assert_eq!(
        ckpt.backend, "sim",
        "sim_to_threaded expects a simulator checkpoint, got backend {:?}",
        ckpt.backend
    );
    let h = ckpt.round;
    let conditions = cfg.effective_conditions();

    let mut reader = ckpt.read_section("sim");
    let _word_pos = reader.int();
    let _local_steps = reader.int();
    let _sync_steps = reader.int();
    let sync_rounds: Vec<usize> = reader.ints().into_iter().map(|r| r as usize).collect();
    let _compute_time_s = reader.f64();
    let _comm_time_s = reader.f64();
    let _bytes = reader.int();
    let last_train_loss = reader.f32();
    let _max_delta_seen = reader.f32();
    let _last_round = reader.opt_int();
    let _forwards_issued = reader.int();
    let n_history = reader.usize();
    for _ in 0..n_history {
        let _it = reader.usize();
        let _time = reader.f64();
        for _ in 0..5 {
            let _f = reader.f32();
        }
    }
    reader.finish();

    let mut reader = ckpt.read_section("global");
    let global = reader.f32s();
    reader.finish();

    let mut out = Checkpoint::new("threaded", ckpt.fingerprint, h);

    // PS state: the global vector is the durable truth; the newest-global guard
    // is the last synchronized round. Under scheduled rejoin pulls the snapshot
    // ring is rebuilt with the one snapshot the image actually holds — the
    // global vector at the latest sync round.
    let last_sync = sync_rounds.last().map(|&r| r as u64);
    let ring = (cfg.rejoin_pull == RejoinPull::Scheduled).then(|| RingState {
        depth: DEFAULT_SNAPSHOT_DEPTH,
        initial: PaperModel::build(cfg.model, cfg.seed).params_flat(),
        entries: last_sync
            .map(|round| (round, global.clone()))
            .into_iter()
            .collect(),
        evicted_min: None,
    });
    out.add_section(ps_section(&PsState {
        global,
        last_global_round: last_sync,
        ring,
    }));

    out.add_policy_state("board", &ckpt.policy_state("policy"));

    for w in 0..cfg.workers {
        let mut reader = ckpt.read_section(&format!("worker{w}"));
        let core = reader.worker_core();
        let _shard_cursor = reader.usize();
        let _last_delta = reader.f32();
        let _progress = reader.usize();
        reader.finish();

        // The cluster-level sync schedule restricted to this worker's presence,
        // exactly what the threaded worker would have accumulated itself.
        let worker_syncs: Vec<u64> = sync_rounds
            .iter()
            .filter(|&&r| conditions.is_present(w, r))
            .map(|&r| r as u64)
            .collect();
        let present: u64 = (0..=h).filter(|&r| conditions.is_present(w, r)).count() as u64;

        let mut section = Section::new(format!("worker{w}"));
        section.push_worker_core(&core.params, &core.optimizer, &core.tracker);
        section.push_int(worker_syncs.len() as u64);
        section.push_int(present - worker_syncs.len() as u64);
        section.push_ints(&worker_syncs);
        // The simulator does not store per-worker losses; seed with the cluster
        // loss — each worker overwrites it at its first post-resume round.
        section.push_f32(last_train_loss);
        out.add_section(section);
    }

    out.trace = ckpt.trace.clone();
    out
}

/// Translate a cluster checkpoint (either tag) into the simulator's layout, so
/// `run` can resume a run the threaded or process cluster started.
pub fn threaded_to_sim(cfg: &TrainConfig, ckpt: &Checkpoint) -> Checkpoint {
    assert!(
        is_cluster_backend(&ckpt.backend),
        "threaded_to_sim expects a cluster checkpoint, got backend {:?}",
        ckpt.backend
    );
    let h = ckpt.round;
    let conditions = cfg.effective_conditions();

    let global = read_ps_state(ckpt).global;

    let mut cores = Vec::with_capacity(cfg.workers);
    let mut worker_syncs: Vec<Vec<usize>> = Vec::with_capacity(cfg.workers);
    let mut worker_losses = Vec::with_capacity(cfg.workers);
    for w in 0..cfg.workers {
        let mut reader = ckpt.read_section(&format!("worker{w}"));
        let core = reader.worker_core();
        let _sync_steps = reader.int();
        let _local_steps = reader.int();
        let rounds: Vec<usize> = reader.ints().into_iter().map(|r| r as usize).collect();
        let last_loss = reader.f32();
        reader.finish();
        cores.push(core);
        worker_syncs.push(rounds);
        worker_losses.push(last_loss);
    }

    // Cluster-level schedule facts from the per-worker views. A round is a sync
    // round iff any present worker synchronized at it (all of them do, so the
    // union is exact); everything else the cluster ran is a local step.
    let mut sync_rounds: Vec<usize> = Vec::new();
    for rounds in &worker_syncs {
        for &r in rounds {
            if !sync_rounds.contains(&r) {
                sync_rounds.push(r);
            }
        }
    }
    sync_rounds.sort_unstable();
    let sync_steps = sync_rounds.len() as u64;
    let local_steps = (h as u64 + 1) - sync_steps;

    // The simulator's `last_train_loss` is the loss of the highest-indexed
    // present worker of the most recent non-empty round — which that worker's
    // own `last_loss` recorded.
    let last_nonempty = (0..=h)
        .rev()
        .find(|&r| !conditions.present_workers(cfg.workers, r).is_empty());
    let last_train_loss = last_nonempty
        .and_then(|r| conditions.present_workers(cfg.workers, r).last().copied())
        .map(|w| worker_losses[w])
        .unwrap_or(0.0);
    // Run-wide max Δ(g_i): every contribution came from some worker's tracker.
    // (A post-crash tracker restart forgets its pre-crash max — crash-free
    // schedules are exact; see the module docs.)
    let max_delta_seen = cores
        .iter()
        .map(|c| c.tracker.max_delta)
        .fold(0.0f32, f32::max);
    let forwards_issued: u64 = (0..=h)
        .map(|r| conditions.present_workers(cfg.workers, r).len() as u64)
        .sum();

    let mut out = Checkpoint::new("sim", ckpt.fingerprint, h);
    let mut section = Section::new("sim");
    // The simulator's cluster RNG is untouched on IID runs without
    // data-injection faults, so the freshly-derived cursor is exact.
    section.push_int(rng::derived(cfg.seed, 0xC1A5).word_pos());
    section.push_int(local_steps);
    section.push_int(sync_steps);
    let rounds_u64: Vec<u64> = sync_rounds.iter().map(|&r| r as u64).collect();
    section.push_ints(&rounds_u64);
    // Cost-model aggregates the threaded driver never computes restart at zero.
    section.push_f64(0.0);
    section.push_f64(0.0);
    section.push_int(0);
    section.push_f32(last_train_loss);
    section.push_f32(max_delta_seen);
    section.push_opt_int(last_nonempty.map(|r| r as u64));
    section.push_int(forwards_issued);
    section.push_usize(0); // eval history: not recoverable from the threaded image
    out.add_section(section);

    for (w, core) in cores.iter().enumerate() {
        let present = (0..=h).filter(|&r| conditions.is_present(w, r)).count();
        let mut section = Section::new(format!("worker{w}"));
        section.push_worker_core(&core.params, &core.optimizer, &core.tracker);
        section.push_usize((present * cfg.batch_size) % traversal_len(cfg, w));
        section.push_f32(core.tracker.last_delta);
        section.push_usize(present);
        out.add_section(section);
    }

    out.add_policy_state("policy", &ckpt.policy_state("board"));
    let mut section = Section::new("global");
    section.push_f32s(&global);
    out.add_section(section);

    out.trace = ckpt.trace.clone();
    out
}
