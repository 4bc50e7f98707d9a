//! In-memory parameter server.
//!
//! The server stores the flat global vector (parameters for PA, or a gradient buffer for
//! GA). Its synchronous rounds ([`ParameterServer::sync_round_elastic`]) are the
//! blocking push-then-pull of SelSync's synchronization phase (Alg. 1, lines 14–15):
//! every worker present at a round contributes a vector; once all have arrived the
//! server averages them, stores the result as the new global state and hands the
//! averaged vector back to every participant. [`ParameterServer::pull`] reads the
//! global vector without a round (a rejoiner's pull, a worker's final read).
//!
//! Everything the server must carry across a checkpoint is one [`PsState`] value,
//! which is also what the sequential simulator holds in place of a live server.

use crate::rounds::ElasticRounds;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Default depth of the scheduled-snapshot ring enabled by
/// [`ParameterServer::enable_scheduled_snapshots`]. Synchronized rounds progress
/// roughly in lockstep (every present worker passes the same status all-gather), so a
/// handful of retained rounds is far more than any rejoiner can lag behind.
pub const DEFAULT_SNAPSHOT_DEPTH: usize = 8;

/// Round-keyed ring of the globals produced by completed elastic synchronization
/// rounds, plus the pre-training initial global as a permanent floor entry. This is
/// what makes a *deterministic* rejoin pull possible: a rejoiner at round `r` asks for
/// the global of the last **scheduled** synchronization before `r`
/// ([`ParameterServer::scheduled_global_before`]) instead of reading whatever the PS
/// holds at that wall-clock moment. Part of [`PsState`].
#[derive(Debug, Clone, PartialEq)]
pub struct RingState {
    /// Retained sync rounds.
    pub depth: usize,
    /// The global vector before any synchronization (the init broadcast).
    pub initial: Vec<f32>,
    /// `(round, post-sync mean)` entries, sorted by round ascending. Rounds can
    /// *complete* out of order under disjoint live-worker sets, so insertion keeps the
    /// ring sorted rather than assuming append order. Eviction always removes the
    /// smallest round, so the ring invariantly retains the `depth` *largest* recorded
    /// rounds — any lookup answered from a retained entry is therefore exact.
    pub entries: Vec<(u64, Vec<f32>)>,
    /// Smallest round id ever evicted — lets a lookup that would fall back to the
    /// initial global detect (and refuse to answer) a query whose true answer no
    /// longer exists instead of silently returning a too-old snapshot.
    pub evicted_min: Option<u64>,
}

impl RingState {
    /// An empty ring retaining `depth` rounds above the floor entry `initial`.
    pub fn new(depth: usize, initial: Vec<f32>) -> Self {
        assert!(depth > 0, "snapshot ring depth must be positive");
        RingState {
            depth,
            initial,
            entries: Vec::new(),
            evicted_min: None,
        }
    }

    /// Record `round`'s post-sync `mean`, keeping the entries sorted by round id (so
    /// out-of-order completions cannot corrupt the "newest before r" lookup) and
    /// evicting the smallest round beyond `depth`.
    pub fn record(&mut self, round: u64, mean: &[f32]) {
        if let Err(pos) = self.entries.binary_search_by_key(&round, |e| e.0) {
            self.entries.insert(pos, (round, mean.to_vec()));
        }
        if self.entries.len() > self.depth {
            let (evicted, _) = self.entries.remove(0);
            self.evicted_min = Some(self.evicted_min.map_or(evicted, |e| e.min(evicted)));
        }
    }

    /// The newest retained entry with round id `< round`; `None` when the answer is
    /// the initial global. Panics if that answer was evicted (ring too shallow for how
    /// far the asker lagged).
    pub fn before(&self, round: u64) -> Option<&(u64, Vec<f32>)> {
        // Eviction removes the smallest retained round, so the ring holds the `depth`
        // largest recorded rounds — every evicted round is older than every retained
        // one, and a retained match is therefore exact.
        let hit = self.entries.iter().rev().find(|&&(r, _)| r < round);
        // No retained sync before `round`: the initial global is the answer only if no
        // *evicted* round was before it either.
        assert!(
            hit.is_some() || self.evicted_min.is_none_or(|e| e >= round),
            "snapshot ring too shallow: the scheduled global before round {round} was evicted"
        );
        hit
    }
}

/// Everything a [`ParameterServer`] must carry across a checkpoint/restore cycle: the
/// global vector, the newest-global guard and the rejoin snapshot ring. In-flight
/// elastic rounds are deliberately excluded — checkpoints are only taken at quiescent
/// points (every worker parked between rounds), where none exist.
#[derive(Debug, Clone, PartialEq)]
pub struct PsState {
    /// The flat global vector.
    pub global: Vec<f32>,
    /// The newest round whose mean defined the global vector.
    pub last_global_round: Option<u64>,
    /// Snapshot-ring state (`None` when the ring is disabled).
    pub ring: Option<RingState>,
}

impl PsState {
    /// The state before any synchronization: `initial` as the global vector and, with
    /// `snapshot_depth`, an empty scheduled-snapshot ring over the same floor entry.
    pub fn new(initial: Vec<f32>, snapshot_depth: Option<usize>) -> Self {
        PsState {
            ring: snapshot_depth.map(|depth| RingState::new(depth, initial.clone())),
            global: initial,
            last_global_round: None,
        }
    }

    /// Fold in the mean of the completed synchronization round `round`: it becomes the
    /// global vector unless a newer round already defined it, and enters the snapshot
    /// ring (when enabled).
    pub fn record_sync(&mut self, round: u64, mean: &[f32]) {
        // Only the newest completed round may define the global vector: an older round
        // completing late (its last participant was slower) must not clobber a newer
        // round's mean.
        if self.last_global_round.is_none_or(|r| round >= r) {
            self.global.copy_from_slice(mean);
            self.last_global_round = Some(round);
        }
        if let Some(ring) = &mut self.ring {
            ring.record(round, mean);
        }
    }

    fn ring(&self) -> &RingState {
        self.ring
            .as_ref()
            .expect("scheduled snapshots are not enabled on this parameter server")
    }
}

/// Shared-memory parameter server over a flat `f32` vector.
pub struct ParameterServer {
    /// The durable state. Rounds complete in *completion* order, which under disjoint
    /// live-worker sets can differ from round order — a worker that skipped rounds can
    /// finish round `k` while a slower worker is still closing round `k-1`;
    /// [`PsState::record_sync`] keeps the older mean from overwriting the newer one.
    state: RwLock<PsState>,
    /// Round-keyed elastic aggregation rounds (membership may differ round to round
    /// when workers crash and rejoin) — the shared [`ElasticRounds`] skeleton with a
    /// sum-then-average combine whose one mean every participant shares.
    elastic: ElasticRounds<Vec<f32>, Arc<Vec<f32>>>,
    /// Contribution buffers handed back by completed rounds, refilled by the next.
    spare_contributions: Mutex<Vec<Vec<f32>>>,
    /// Every mean buffer handed out so far; a round reuses one nobody holds any more.
    means: Mutex<Vec<Arc<Vec<f32>>>>,
}

impl ParameterServer {
    /// Create a server holding `initial` as the global vector.
    pub fn new(initial: Vec<f32>) -> Self {
        ParameterServer {
            state: RwLock::new(PsState::new(initial, None)),
            elastic: ElasticRounds::new(),
            spare_contributions: Mutex::new(Vec::new()),
            means: Mutex::new(Vec::new()),
        }
    }

    /// Enable the round-keyed scheduled-snapshot ring: from now on every completed
    /// [`Self::sync_round_elastic`] records its round's mean, keeping the newest
    /// `depth` rounds, and [`Self::scheduled_global_before`] answers deterministic
    /// rejoin pulls. The current global vector is captured as the permanent
    /// before-any-synchronization floor, so call this before training starts.
    pub fn enable_scheduled_snapshots(&self, depth: usize) {
        let mut state = self.state.write();
        state.ring = Some(RingState::new(depth, state.global.clone()));
    }

    /// The global produced by the newest **scheduled** synchronization round with id
    /// `< round` — what a deterministic rejoiner at `round` pulls, independent of
    /// wall-clock interleaving. Falls back to the initial global when no earlier round
    /// synchronized. Panics if the ring is disabled, or if the answer was evicted
    /// (ring too shallow for how far this rejoiner lagged).
    pub fn scheduled_global_before(&self, round: u64) -> Vec<f32> {
        let state = self.state.read();
        let ring = state.ring();
        ring.before(round)
            .map_or_else(|| ring.initial.clone(), |(_, mean)| mean.clone())
    }

    /// The round id of the newest **scheduled** synchronization round with id
    /// `< round` — the round whose global [`Self::scheduled_global_before`] would
    /// answer with — or `None` when the answer is the pre-training initial global.
    /// Same preconditions as the value lookup: panics if the ring is disabled or the
    /// answer was evicted. The trace layer records this id on deterministic rejoin
    /// pulls so both backends log the same `from` round.
    pub fn scheduled_round_before(&self, round: u64) -> Option<u64> {
        self.state.read().ring().before(round).map(|&(r, _)| r)
    }

    /// Dimensionality of the stored vector.
    pub fn dim(&self) -> usize {
        self.state.read().global.len()
    }

    /// Snapshot of the global vector (the `pullFromPS` of Alg. 1).
    pub fn pull(&self) -> Vec<f32> {
        self.state.read().global.clone()
    }

    /// Participate in a blocking aggregation round with **elastic membership**: only the
    /// workers alive at this training iteration contribute, and the round is keyed by
    /// the explicit `round` id rather than an implicit generation counter, so crashed
    /// workers that skip rounds can neither close nor corrupt rounds they were not part
    /// of. Averages over the present workers only; the average becomes the new global
    /// vector. All participants of one round must pass the same `participants` count,
    /// and a worker contributes at most once per round.
    ///
    /// The mean is accumulated in **worker-id order** (one in-order sum per element,
    /// then one divide), never arrival order — bit-identical to
    /// `selsync::aggregation::average_present_into` over the same replicas, which is
    /// what lets the threaded driver reproduce the simulator's parameter stream.
    pub fn sync_round_elastic(
        &self,
        round: u64,
        worker: usize,
        contribution: &[f32],
        participants: usize,
    ) -> Vec<f32> {
        let fill = |buf: &mut Vec<f32>| buf.extend_from_slice(contribution);
        self.sync_round_shared(round, worker, participants, fill)
            .to_vec()
    }

    /// [`Self::sync_round_elastic`] without a copy on either side: `fill` writes the
    /// contribution into a buffer recycled from an earlier round, and every
    /// participant gets the one mean behind an [`Arc`]. Once its holders drop it, a
    /// later round overwrites that mean in place, so a warm round allocates nothing.
    pub fn sync_round_shared(
        &self,
        round: u64,
        worker: usize,
        participants: usize,
        fill: impl FnOnce(&mut Vec<f32>),
    ) -> Arc<Vec<f32>> {
        let dim = self.dim();
        let spare = self.spare_contributions.lock().pop();
        let mut contribution = spare.unwrap_or_else(|| Vec::with_capacity(dim));
        contribution.clear();
        fill(&mut contribution);
        assert_eq!(contribution.len(), dim, "contribution dimension mismatch");
        self.elastic
            .run(round, worker, participants, contribution, |contribs| {
                // A mean only the pool holds can be overwritten in place.
                let mut means = self.means.lock();
                let free = means.iter().position(|m| Arc::strong_count(m) == 1);
                let mut shared =
                    free.map_or_else(|| Arc::new(vec![0.0; dim]), |at| means.swap_remove(at));
                let mean = Arc::make_mut(&mut shared);
                mean.fill(0.0);
                let mut spare = self.spare_contributions.lock();
                for (_, c) in contribs.iter_mut() {
                    for (o, &x) in mean.iter_mut().zip(c.iter()) {
                        *o += x;
                    }
                    spare.push(std::mem::take(c));
                }
                let n = contribs.len() as f32;
                for o in mean.iter_mut() {
                    *o /= n;
                }
                self.state.write().record_sync(round, mean);
                means.push(Arc::clone(&shared));
                shared
            })
    }

    /// Capture the server's durable state for a checkpoint. Must only be called at
    /// a quiescent point (no in-flight elastic round) — the elastic rendezvous
    /// state is not captured.
    pub fn export_state(&self) -> PsState {
        self.state.read().clone()
    }

    /// Restore durable state captured by [`Self::export_state`] onto a freshly
    /// built server (same dimensionality). Call before any worker starts.
    pub fn restore_state(&self, state: &PsState) {
        let mut own = self.state.write();
        assert_eq!(
            own.global.len(),
            state.global.len(),
            "checkpoint dimension mismatch"
        );
        *own = state.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pull_returns_initial_state() {
        let ps = ParameterServer::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(ps.pull(), vec![1.0, 2.0, 3.0]);
        assert_eq!(ps.dim(), 3);
    }

    #[test]
    fn single_participant_round_is_identity() {
        let ps = ParameterServer::new(vec![0.0; 3]);
        let avg = ps.sync_round_elastic(0, 0, &[3.0, 6.0, 9.0], 1);
        assert_eq!(avg, vec![3.0, 6.0, 9.0]);
        assert_eq!(ps.pull(), vec![3.0, 6.0, 9.0]);
    }

    #[test]
    fn multi_threaded_round_averages_all_contributions() {
        let ps = Arc::new(ParameterServer::new(vec![0.0; 2]));
        let workers = 8;
        let mut handles = Vec::new();
        for w in 0..workers {
            let ps = Arc::clone(&ps);
            handles.push(std::thread::spawn(move || {
                ps.sync_round_elastic(0, w, &[w as f32, 1.0], workers)
            }));
        }
        let expected_mean = (0..workers).sum::<usize>() as f32 / workers as f32;
        for h in handles {
            let avg = h.join().unwrap();
            assert!((avg[0] - expected_mean).abs() < 1e-6);
            assert!((avg[1] - 1.0).abs() < 1e-6);
        }
        assert!((ps.pull()[0] - expected_mean).abs() < 1e-6);
    }

    #[test]
    fn consecutive_rounds_are_independent() {
        let ps = Arc::new(ParameterServer::new(vec![0.0; 1]));
        for round in 0..5 {
            let mut handles = Vec::new();
            for w in 0..4 {
                let ps = Arc::clone(&ps);
                let v = (round * 4 + w) as f32;
                handles.push(std::thread::spawn(move || {
                    ps.sync_round_elastic(round as u64, w, &[v], 4)
                }));
            }
            let expected = (0..4).map(|w| (round * 4 + w) as f32).sum::<f32>() / 4.0;
            for h in handles {
                assert!((h.join().unwrap()[0] - expected).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let ps = ParameterServer::new(vec![0.0; 2]);
        ps.sync_round_elastic(0, 0, &[1.0], 1);
    }

    #[test]
    fn elastic_rounds_average_over_present_workers_only() {
        // Round 0: all 4 workers. Round 1: worker 3 crashed — only 3 contribute, and
        // the average is over those 3. Worker 3 skips straight to round 2 after
        // rejoining; membership is per-round, so nothing deadlocks.
        let ps = Arc::new(ParameterServer::new(vec![0.0; 1]));
        let mut handles = Vec::new();
        for w in 0..4usize {
            let ps = Arc::clone(&ps);
            handles.push(std::thread::spawn(move || {
                let mut results = Vec::new();
                for round in 0..3u64 {
                    if w == 3 && round == 1 {
                        continue;
                    }
                    let expected = if round == 1 { 3 } else { 4 };
                    let avg = ps.sync_round_elastic(round, w, &[(w + 1) as f32], expected);
                    results.push((round, avg[0]));
                }
                results
            }));
        }
        let all: Vec<Vec<(u64, f32)>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (w, results) in all.into_iter().enumerate() {
            for (round, avg) in results {
                let expected = match round {
                    1 => (1.0 + 2.0 + 3.0) / 3.0,
                    _ => (1.0 + 2.0 + 3.0 + 4.0) / 4.0,
                };
                assert!(
                    (avg - expected).abs() < 1e-6,
                    "worker {w} round {round}: {avg}"
                );
            }
        }
        // The last round's average is the stored global state.
        assert!((ps.pull()[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn late_completing_older_round_does_not_clobber_the_global() {
        // Disjoint live sets let rounds complete out of order: a worker alone in round
        // 5 closes it before the worker alone in round 3 arrives. The global vector
        // must keep round 5's mean.
        let ps = ParameterServer::new(vec![0.0; 1]);
        let newer = ps.sync_round_elastic(5, 0, &[50.0], 1);
        assert_eq!(newer, vec![50.0]);
        let older = ps.sync_round_elastic(3, 0, &[30.0], 1);
        assert_eq!(
            older,
            vec![30.0],
            "the round itself still returns its own mean"
        );
        assert_eq!(
            ps.pull(),
            vec![50.0],
            "global must stay at the newest round's mean"
        );
        // A genuinely newer round still advances the global.
        ps.sync_round_elastic(7, 0, &[70.0], 1);
        assert_eq!(ps.pull(), vec![70.0]);
    }

    #[test]
    fn snapshot_ring_answers_round_keyed_lookups() {
        let ps = ParameterServer::new(vec![0.0; 1]);
        ps.enable_scheduled_snapshots(4);
        // Synced rounds 2, 5, 9 (single participant ⇒ the mean is the contribution).
        for (round, v) in [(2u64, 2.0f32), (5, 5.0), (9, 9.0)] {
            ps.sync_round_elastic(round, 0, &[v], 1);
        }
        // Before any sync round: the initial global.
        assert_eq!(ps.scheduled_global_before(0), vec![0.0]);
        assert_eq!(ps.scheduled_global_before(2), vec![0.0]);
        // Round-keyed: strictly the newest scheduled sync *before* the asked round.
        assert_eq!(ps.scheduled_global_before(3), vec![2.0]);
        assert_eq!(ps.scheduled_global_before(5), vec![2.0]);
        assert_eq!(ps.scheduled_global_before(6), vec![5.0]);
        assert_eq!(ps.scheduled_global_before(9), vec![5.0]);
        assert_eq!(ps.scheduled_global_before(100), vec![9.0]);
    }

    #[test]
    fn snapshot_ring_reports_the_round_id_of_its_answer() {
        let ps = ParameterServer::new(vec![0.0; 1]);
        ps.enable_scheduled_snapshots(4);
        for (round, v) in [(2u64, 2.0f32), (5, 5.0), (9, 9.0)] {
            ps.sync_round_elastic(round, 0, &[v], 1);
        }
        assert_eq!(ps.scheduled_round_before(2), None);
        assert_eq!(ps.scheduled_round_before(3), Some(2));
        assert_eq!(ps.scheduled_round_before(9), Some(5));
        assert_eq!(ps.scheduled_round_before(100), Some(9));
    }

    #[test]
    fn snapshot_ring_handles_out_of_order_round_completion() {
        // Disjoint live sets let a newer round complete before an older one; the ring
        // must stay sorted by round id, not completion order.
        let ps = ParameterServer::new(vec![0.0; 1]);
        ps.enable_scheduled_snapshots(4);
        ps.sync_round_elastic(7, 0, &[70.0], 1);
        ps.sync_round_elastic(4, 1, &[40.0], 1);
        assert_eq!(ps.scheduled_global_before(5), vec![40.0]);
        assert_eq!(ps.scheduled_global_before(8), vec![70.0]);
    }

    #[test]
    fn snapshot_ring_evicts_the_oldest_round_beyond_its_depth() {
        let ps = ParameterServer::new(vec![0.0; 1]);
        ps.enable_scheduled_snapshots(2);
        for round in 1..=4u64 {
            ps.sync_round_elastic(round, 0, &[round as f32 * 10.0], 1);
        }
        // Rounds 1 and 2 were evicted; 3 and 4 remain.
        assert_eq!(ps.scheduled_global_before(4), vec![30.0]);
        assert_eq!(ps.scheduled_global_before(5), vec![40.0]);
        // Asking for a horizon at or before the evicted rounds still answers the
        // initial-global case exactly: round 1 is not `< 1`, so `before(1)` is the
        // floor entry.
        assert_eq!(ps.scheduled_global_before(1), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "too shallow")]
    fn snapshot_ring_refuses_a_lookup_whose_answer_was_evicted() {
        let ps = ParameterServer::new(vec![0.0; 1]);
        ps.enable_scheduled_snapshots(2);
        for round in 1..=4u64 {
            ps.sync_round_elastic(round, 0, &[round as f32], 1);
        }
        // The newest sync before round 3 is round 2 — evicted, so the ring must
        // refuse rather than silently hand back round 1's or the initial global.
        ps.scheduled_global_before(3);
    }

    #[test]
    #[should_panic(expected = "not enabled")]
    fn scheduled_pull_requires_the_ring_to_be_enabled() {
        let ps = ParameterServer::new(vec![0.0; 1]);
        ps.scheduled_global_before(1);
    }

    #[test]
    fn concurrent_rejoiners_in_the_same_round_pull_the_same_snapshot() {
        // Two rejoiners at round 6 race the lookup while live workers complete later
        // rounds; both must see exactly round 4's mean (the newest scheduled sync
        // before 6), never a later or torn value.
        let ps = Arc::new(ParameterServer::new(vec![0.0; 2]));
        ps.enable_scheduled_snapshots(4);
        ps.sync_round_elastic(4, 0, &[4.0, 44.0], 1);
        ps.sync_round_elastic(7, 0, &[7.0, 77.0], 1);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let ps = Arc::clone(&ps);
                std::thread::spawn(move || ps.scheduled_global_before(6))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![4.0, 44.0]);
        }
    }

    #[test]
    fn export_restore_round_trips_the_global_guard_and_ring() {
        let ps = ParameterServer::new(vec![0.0; 2]);
        ps.enable_scheduled_snapshots(3);
        for round in [2u64, 5, 8, 11] {
            ps.sync_round_elastic(round, 0, &[round as f32, -(round as f32)], 1);
        }
        let state = ps.export_state();
        let ring = state.ring.as_ref().expect("ring enabled");
        assert_eq!(ring.depth, 3);
        assert_eq!(ring.entries.len(), 3, "depth bounds the retained rounds");
        assert_eq!(ring.evicted_min, Some(2));

        // A fresh server restored from the state answers identically.
        let fresh = ParameterServer::new(vec![0.0; 2]);
        fresh.restore_state(&state);
        assert_eq!(fresh.pull(), ps.pull());
        assert_eq!(
            fresh.scheduled_global_before(9),
            ps.scheduled_global_before(9)
        );
        assert_eq!(fresh.scheduled_round_before(100), Some(11));
        assert_eq!(fresh.export_state(), state, "export is a fixed point");
        // The newest-global guard survived: an older round cannot clobber.
        fresh.sync_round_elastic(6, 0, &[600.0, 600.0], 1);
        assert_eq!(fresh.pull(), ps.pull());
    }

    #[test]
    fn a_bare_state_folds_rounds_exactly_like_the_server() {
        // The simulator holds a `PsState` in place of a live server; fed the same
        // rounds — evictions and a late-completing older round included — it must
        // end in the server's exported state.
        let ps = ParameterServer::new(vec![0.5; 2]);
        ps.enable_scheduled_snapshots(2);
        let mut bare = PsState::new(vec![0.5; 2], Some(2));
        for round in [1u64, 4, 9, 6, 12] {
            let mean = [round as f32, -(round as f32)];
            ps.sync_round_elastic(round, 0, &mean, 1);
            bare.record_sync(round, &mean);
        }
        assert_eq!(bare, ps.export_state());
        assert_eq!(bare.global, vec![12.0, -12.0]);
        assert_eq!(bare.ring.as_ref().unwrap().evicted_min, Some(1));
        assert_eq!(PsState::new(vec![1.0], None), {
            ParameterServer::new(vec![1.0]).export_state()
        });
    }

    #[test]
    fn export_without_ring_restores_a_disabled_ring() {
        let ps = ParameterServer::new(vec![1.0]);
        let state = ps.export_state();
        assert!(state.ring.is_none());
        let fresh = ParameterServer::new(vec![0.0]);
        fresh.enable_scheduled_snapshots(2);
        fresh.restore_state(&state);
        assert_eq!(fresh.pull(), vec![1.0]);
        assert!(fresh.export_state().ring.is_none());
    }

    #[test]
    fn elastic_sync_results_are_pinned_across_commits() {
        // Every participant's mean and the exported state — global, newest-round
        // guard, an evicting depth-2 snapshot ring — over twelve rounds of changing
        // membership, a 1-worker round and a reverse-id arrival, folded into one
        // checksum. A change to how the PS buffers or hands out its means must leave
        // this digest alone.
        const DIM: usize = 8;
        let value = |round: usize, w: usize, i: usize| {
            let scale = [1e6f32, 1.0, -1e6][w];
            ((round * 13 + w * 5 + i * 3) % 17) as f32 * 0.173 * scale + i as f32 * 0.01
        };
        // (members in arrival order) per round.
        let rounds: [&[usize]; 12] = [
            &[0, 1, 2],
            &[2, 1, 0],
            &[0, 2],
            &[1],
            &[0, 1],
            &[1, 2, 0],
            &[1, 2],
            &[0, 1, 2],
            &[2, 0],
            &[0, 1, 2],
            &[2, 1],
            &[0, 2, 1],
        ];
        let ps = ParameterServer::new((0..DIM).map(|i| i as f32 * 0.5).collect());
        ps.enable_scheduled_snapshots(2);
        let mut bytes = Vec::new();
        for (round, arrivals) in rounds.iter().enumerate() {
            let mut means: Vec<(usize, Vec<f32>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = arrivals
                    .iter()
                    .enumerate()
                    .map(|(order, &w)| {
                        let ps = &ps;
                        scope.spawn(move || {
                            std::thread::sleep(std::time::Duration::from_millis(order as u64 * 3));
                            let c: Vec<f32> = (0..DIM).map(|i| value(round, w, i)).collect();
                            (
                                w,
                                ps.sync_round_elastic(round as u64, w, &c, arrivals.len()),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            means.sort_by_key(|&(w, _)| w);
            for (w, mean) in means {
                bytes.extend_from_slice(&(round as u64).to_le_bytes());
                bytes.extend_from_slice(&(w as u64).to_le_bytes());
                bytes.extend(mean.iter().flat_map(|x| x.to_le_bytes()));
            }
        }
        let state = ps.export_state();
        let ring = state.ring.as_ref().expect("ring enabled");
        assert_eq!(
            ring.evicted_min,
            Some(0),
            "the depth-2 ring must have evicted"
        );
        bytes.extend(state.global.iter().flat_map(|x| x.to_le_bytes()));
        bytes.extend_from_slice(&state.last_global_round.unwrap().to_le_bytes());
        bytes.extend(ring.initial.iter().flat_map(|x| x.to_le_bytes()));
        for (round, mean) in &ring.entries {
            bytes.extend_from_slice(&round.to_le_bytes());
            bytes.extend(mean.iter().flat_map(|x| x.to_le_bytes()));
        }
        assert_eq!(crate::wire::checksum(&bytes), 0x6832_35fe_8df8_1a10);
    }

    #[test]
    fn elastic_mean_is_summed_in_worker_order_not_arrival_order() {
        // Values chosen so the fp sum depends on order: with f32,
        // (1e8 + 1.0) - 1e8 == 0 but (1e8 - 1e8) + 1.0 == 1.0. The combine must sum
        // in worker-id order (w0 + w1 + w2) regardless of which thread closes the
        // round, so the mean is a pure function of the contributions.
        let expected = {
            let mut s = 0.0f32;
            for v in [1e8f32, 1.0, -1e8] {
                s += v;
            }
            s / 3.0
        };
        for _ in 0..8 {
            let ps = Arc::new(ParameterServer::new(vec![0.0; 1]));
            let handles: Vec<_> = [(0usize, 1e8f32), (1, 1.0), (2, -1e8)]
                .into_iter()
                .map(|(w, v)| {
                    let ps = Arc::clone(&ps);
                    std::thread::spawn(move || ps.sync_round_elastic(0, w, &[v], 3))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), vec![expected]);
            }
        }
    }
}
