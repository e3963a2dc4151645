//! The whole-system wiring: cores → cache hierarchy → encryption engine →
//! DRAM.
//!
//! [`Machine::run`] executes a warm-up window, resets all statistics, and
//! measures a window — the structure of the paper's methodology
//! (Section V: warm up tree/memo/caches, then observe a fixed window).

use crate::core::CoreModel;
use crate::result::{CoreWindow, SimResult};
use clme_cache::hierarchy::{CacheAccessResult, HitLevel, MemorySystemCaches};
use clme_core::engine::EncryptionEngine;
use clme_dram::power::PowerParams;
use clme_dram::timing::Dram;
use clme_obs::{Component, EventKind, NopSink, SpanKind, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{Time, TimeDelta};
use clme_workloads::{Op, Workload};

/// A simulated machine running one workload instance per core.
pub struct Machine {
    cfg: SystemConfig,
    cores: Vec<CoreModel>,
    workloads: Vec<Box<dyn Workload>>,
    caches: MemorySystemCaches,
    engine: Box<dyn EncryptionEngine>,
    dram: Dram,
    obs: Box<dyn TraceSink>,
    /// The outcome of the latest hierarchy access, reused by every one.
    access: CacheAccessResult,
    l1_latency: TimeDelta,
    l2_path: TimeDelta,
    llc_path: TimeDelta,
}

impl Machine {
    /// Builds a machine.
    ///
    /// # Panics
    ///
    /// Panics if the number of workloads differs from `cfg.cores`.
    pub fn new(
        cfg: SystemConfig,
        engine: Box<dyn EncryptionEngine>,
        workloads: Vec<Box<dyn Workload>>,
    ) -> Machine {
        let caches = MemorySystemCaches::new(&cfg);
        let dram = Dram::new(&cfg);
        Machine::assemble(cfg, engine, workloads, caches, dram)
    }

    /// Builds a machine reusing previously-allocated cache arrays and
    /// DRAM state (from [`Machine::into_parts`]): both are reset to
    /// freshly-constructed behaviour, so a machine built this way is
    /// observationally identical to [`Machine::new`] with the same
    /// arguments. The parts must come from a machine built with an
    /// identical configuration — geometry is not re-checked.
    ///
    /// # Panics
    ///
    /// Panics if the number of workloads differs from `cfg.cores`.
    pub fn from_parts(
        cfg: SystemConfig,
        engine: Box<dyn EncryptionEngine>,
        workloads: Vec<Box<dyn Workload>>,
        mut caches: MemorySystemCaches,
        mut dram: Dram,
    ) -> Machine {
        caches.reset_full();
        dram.reset_full();
        Machine::assemble(cfg, engine, workloads, caches, dram)
    }

    fn assemble(
        cfg: SystemConfig,
        engine: Box<dyn EncryptionEngine>,
        workloads: Vec<Box<dyn Workload>>,
        caches: MemorySystemCaches,
        dram: Dram,
    ) -> Machine {
        assert_eq!(workloads.len(), cfg.cores, "one workload instance per core");
        Machine {
            cores: (0..cfg.cores).map(|_| CoreModel::new(&cfg)).collect(),
            caches,
            engine,
            dram,
            obs: Box::new(NopSink),
            access: CacheAccessResult::default(),
            l1_latency: cfg.l1d.latency,
            l2_path: cfg.l1d.latency + cfg.l2.latency,
            llc_path: cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency,
            cfg,
            workloads,
        }
    }

    /// Recovers the reusable heavyweight parts (cache arrays and DRAM
    /// state) so the next machine for the same configuration can skip
    /// their allocation.
    pub fn into_parts(self) -> (MemorySystemCaches, Dram) {
        (self.caches, self.dram)
    }

    /// Installs an observability sink; all subsequent simulation events
    /// flow into it. The default sink is the no-op [`NopSink`].
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.obs = sink;
    }

    /// Removes the installed sink (replacing it with the no-op one) and
    /// returns it, e.g. to downcast a recorder back out after a run.
    pub fn take_sink(&mut self) -> Box<dyn TraceSink> {
        std::mem::replace(&mut self.obs, Box::new(NopSink))
    }

    /// The engine (for inspection after a run).
    pub fn engine(&self) -> &dyn EncryptionEngine {
        self.engine.as_ref()
    }

    /// The DRAM model (for inspection after a run).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Executes one workload op on `core_idx`.
    fn step(&mut self, core_idx: usize) {
        // The scheduler always steps the lagging core, so its cursor is
        // the global simulation frontier: tick epoch boundaries here.
        self.obs.tick(self.cores[core_idx].now());
        let stall_before = if self.obs.enabled() {
            Some((self.cores[core_idx].rob_stall(), self.cores[core_idx].now()))
        } else {
            None
        };
        let op = self.workloads[core_idx].next_op();
        match op {
            Op::Compute { n } => {
                self.cores[core_idx].do_compute(n);
                self.obs.retire(u64::from(n));
            }
            Op::Load { addr, dependent } => {
                let issue = self.cores[core_idx].begin_mem(dependent);
                let completion = self.memory_access(core_idx, addr.block().raw(), false, issue);
                self.cores[core_idx].complete_mem(completion, true);
                self.obs.retire(1);
            }
            Op::Store { addr } => {
                let issue = self.cores[core_idx].begin_mem(false);
                // Stores complete into the store buffer at L1 speed; the
                // cache state updates (and may trigger fills/writebacks).
                self.memory_access(core_idx, addr.block().raw(), true, issue);
                let completion = issue + self.l1_latency;
                self.cores[core_idx].complete_mem(completion, false);
                self.obs.retire(1);
            }
        }
        // Attribute any dispatch time this op lost to a full ROB.
        if let Some((stall, at)) = stall_before {
            let grown = self.cores[core_idx].rob_stall().saturating_sub(stall);
            if grown > TimeDelta::ZERO {
                self.obs.event(
                    at,
                    Component::Core,
                    EventKind::RobStall,
                    core_idx as u64,
                    grown,
                );
                self.obs.latency(Stage::RobStall, grown);
            }
        }
    }

    /// One access through the hierarchy; returns the load-use completion
    /// time.
    fn memory_access(&mut self, core_idx: usize, block: u64, write: bool, issue: Time) -> Time {
        self.caches.access_into(
            core_idx,
            block,
            write,
            issue,
            &mut *self.obs,
            &mut self.access,
        );
        let level = self.access.level.expect("access always resolves");
        let completion = match level {
            HitLevel::L1 => issue + self.l1_latency,
            HitLevel::L2 => issue + self.l2_path,
            HitLevel::Llc => issue + self.llc_path,
            HitLevel::Memory => {
                let mc_issue = issue + self.llc_path;
                let slot = self.cores[core_idx].acquire_mshr(mc_issue);
                if self.obs.enabled() {
                    // Lookup walked L1→L2→LLC before the miss left the chip.
                    self.obs
                        .span_child(SpanKind::CacheLookup, 0, issue, mc_issue);
                }
                let outcome = self.engine.on_read_miss(
                    clme_types::BlockAddr::new(block),
                    slot,
                    &mut self.dram,
                    &mut *self.obs,
                );
                self.cores[core_idx].commit_mshr(outcome.ready);
                // Close the request span before writebacks/prefetches below
                // emit their own (ignored, requestless) child spans.
                self.obs
                    .span_request_end(outcome.data_arrival, outcome.ready);
                outcome.ready
            }
        };
        if self.obs.enabled() {
            // The hierarchy's contribution to this access: how deep the
            // lookup went (the miss's DRAM/engine time is attributed to
            // those stages, not here).
            let path = match level {
                HitLevel::L1 => self.l1_latency,
                HitLevel::L2 => self.l2_path,
                _ => self.llc_path,
            };
            self.obs.latency(Stage::Cache, path);
        }
        let traffic_time = issue + self.llc_path;
        for &wb in &self.access.writebacks {
            self.engine.on_writeback(
                clme_types::BlockAddr::new(wb),
                traffic_time,
                &mut self.dram,
                &mut *self.obs,
            );
        }
        for &pf in &self.access.prefetch_fills {
            self.engine.on_prefetch_fill(
                clme_types::BlockAddr::new(pf),
                traffic_time,
                &mut self.dram,
                &mut *self.obs,
            );
        }
        completion
    }

    /// Fast functional (untimed) warm-up, the analogue of gem5's atomic
    /// mode the paper uses before its detailed window (Section V): drives
    /// `mem_accesses_per_core` memory operations per core through the
    /// cache hierarchy — warming tags, dirtiness, and prefetcher state —
    /// without advancing simulated time or touching DRAM.
    pub fn functional_warmup(&mut self, mem_accesses_per_core: u64) {
        for core in 0..self.cores.len() {
            let mut done = 0;
            while done < mem_accesses_per_core {
                let (addr, write) = match self.workloads[core].next_op() {
                    Op::Compute { .. } => continue,
                    Op::Load { addr, .. } => (addr, false),
                    Op::Store { addr } => (addr, true),
                };
                self.caches.access_into(
                    core,
                    addr.block().raw(),
                    write,
                    Time::ZERO,
                    &mut NopSink,
                    &mut self.access,
                );
                done += 1;
            }
        }
    }

    /// Runs until every core has executed at least `per_core`
    /// instructions past its current count; returns (start, end) times of
    /// the window.
    fn run_window(&mut self, per_core: u64) -> (Time, Time) {
        let start = self
            .cores
            .iter()
            .map(CoreModel::now)
            .fold(Time::ZERO, Time::max);
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.instructions() + per_core)
            .collect();
        loop {
            // Pick the lagging core (smallest cursor) among unfinished.
            let mut next: Option<(usize, Time)> = None;
            for (i, core) in self.cores.iter().enumerate() {
                if core.instructions() < targets[i] {
                    let t = core.now();
                    if next.map(|(_, best)| t < best).unwrap_or(true) {
                        next = Some((i, t));
                    }
                }
            }
            match next {
                Some((idx, _)) => self.step(idx),
                None => break,
            }
        }
        let end = self
            .cores
            .iter()
            .map(CoreModel::drained_at)
            .fold(Time::ZERO, Time::max);
        (start, end)
    }

    /// Warm up for `warmup_per_core` instructions per core, reset all
    /// statistics, then measure `measure_per_core` instructions per core.
    pub fn run(&mut self, warmup_per_core: u64, measure_per_core: u64) -> SimResult {
        if warmup_per_core > 0 {
            self.run_window(warmup_per_core);
        }
        self.engine.reset_stats();
        self.dram.reset_stats();
        self.caches.reset_stats();
        self.obs.window_reset();
        for core in &mut self.cores {
            core.reset_instruction_count();
        }

        let (start, end) = self.run_window(measure_per_core);
        let elapsed = end.saturating_since(start);
        let instructions: u64 = self.cores.iter().map(CoreModel::instructions).sum();
        let tracker = self.dram.tracker();
        let elapsed_nonzero = elapsed.max(TimeDelta::from_picos(1));
        let window_cycles =
            (elapsed_nonzero.picos() as f64 / self.cfg.core_period().picos() as f64).max(1.0);
        let per_core = self
            .cores
            .iter()
            .map(|core| CoreWindow {
                instructions: core.instructions(),
                ipc: core.instructions() as f64 / window_cycles,
                rob_stall: core.rob_stall(),
                rob_stall_events: core.rob_stall_events(),
            })
            .collect();
        let power = PowerParams::default();
        SimResult {
            benchmark: self.workloads[0].name().to_string(),
            engine: self.engine.kind(),
            elapsed,
            instructions,
            ipc: instructions as f64 / window_cycles,
            per_core,
            engine_stats: self.engine.stats().clone(),
            dram_reads: tracker.reads(),
            dram_writes: tracker.writes(),
            dram_busy: tracker.busy_time(),
            activations: self.dram.activations(),
            row_hits: self.dram.row_hits(),
            row_closed: self.dram.row_closed(),
            row_conflicts: self.dram.row_conflicts(),
            bandwidth_utilization: tracker.utilization(elapsed_nonzero),
            llc_demand_hit: self.caches.llc_demand_hit_ratio(),
            energy_per_instruction_nj: power.energy_per_instruction(
                elapsed_nonzero,
                self.dram.activations(),
                tracker.reads(),
                tracker.writes(),
                instructions.max(1),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_core::engine::EngineKind;
    use clme_core::{build_engine, CounterLightEngine};
    use clme_workloads::suites;

    fn small_machine(kind: EngineKind, bench: &str) -> Machine {
        let cfg = SystemConfig::isca_table1();
        let engine = build_engine(kind, &cfg, suites::address_space_blocks());
        let workloads = (0..cfg.cores)
            .map(|c| suites::instantiate(bench, c))
            .collect();
        Machine::new(cfg, engine, workloads)
    }

    /// The timed warm-up and the measured window may run as two `run`
    /// calls (how `clme perf` times them apart): the result and the
    /// recorder's measured-window histograms and counters equal one
    /// call's.
    #[test]
    fn split_run_matches_unsplit_run() {
        use clme_obs::Recorder;

        for kind in [EngineKind::CounterMode, EngineKind::CounterLight] {
            let outputs = |split: bool| {
                let mut m = small_machine(kind, "bfs");
                m.set_sink(Box::new(Recorder::new()));
                m.functional_warmup(3_000);
                let result = if split {
                    m.run(2_000, 0);
                    m.run(0, 8_000)
                } else {
                    m.run(2_000, 8_000)
                };
                let rec = m.take_sink().into_any().downcast::<Recorder>().unwrap();
                let stages: Vec<_> = Stage::ALL.iter().map(|&s| rec.stage(s).clone()).collect();
                (format!("{result:?}"), rec.counters().clone(), stages)
            };
            assert_eq!(outputs(true), outputs(false), "{kind:?}");
        }
    }

    #[test]
    fn machine_runs_and_reports() {
        let mut m = small_machine(EngineKind::None, "mcf");
        let result = m.run(2_000, 10_000);
        assert!(result.instructions >= 40_000);
        assert!(result.elapsed > TimeDelta::ZERO);
        assert!(result.ipc > 0.0);
        assert!(result.engine_stats.read_misses > 0, "mcf must miss the LLC");
        assert_eq!(result.benchmark, "mcf");
    }

    #[test]
    fn counterless_is_slower_than_none_on_pointer_chase() {
        let cfg = SystemConfig::isca_table1();
        let run = |kind| {
            let engine = build_engine(kind, &cfg, suites::address_space_blocks());
            let workloads = (0..cfg.cores)
                .map(|c| {
                    Box::new(suites::pointer_chase(
                        c as u64,
                        c as u64 * suites::SPAN_BLOCKS,
                    )) as Box<dyn clme_workloads::Workload>
                })
                .collect();
            Machine::new(cfg.clone(), engine, workloads).run(1_000, 8_000)
        };
        let none = run(EngineKind::None);
        let counterless = run(EngineKind::Counterless);
        let slowdown = counterless.elapsed.picos() as f64 / none.elapsed.picos() as f64;
        // Pure dependent misses: every miss eats the extra 10 ns.
        assert!(slowdown > 1.05, "slowdown {slowdown}");
    }

    #[test]
    fn counter_light_beats_counterless_on_irregular() {
        let counterless = small_machine(EngineKind::Counterless, "bfs").run(2_000, 12_000);
        let light = small_machine(EngineKind::CounterLight, "bfs").run(2_000, 12_000);
        assert!(
            light.elapsed < counterless.elapsed,
            "counter-light {} vs counterless {}",
            light.elapsed,
            counterless.elapsed
        );
    }

    #[test]
    fn counter_light_issues_metadata_only_for_writebacks() {
        let mut m = small_machine(EngineKind::CounterLight, "streamcluster");
        let result = m.run(1_000, 8_000);
        // streamcluster writes almost nothing → almost no metadata.
        assert!(result.engine_stats.metadata_reads <= result.engine_stats.writebacks * 6);
        assert_eq!(result.engine_stats.counter_fetches, 0);
    }

    #[test]
    fn custom_engine_is_accepted() {
        let cfg = SystemConfig::isca_table1();
        let engine = Box::new(CounterLightEngine::with_dynamic_switching(
            &cfg,
            suites::address_space_blocks(),
            false,
        ));
        let workloads = (0..cfg.cores)
            .map(|c| suites::instantiate("omnetpp", c))
            .collect();
        let mut m = Machine::new(cfg, engine, workloads);
        let result = m.run(500, 4_000);
        assert_eq!(
            result.engine_stats.counterless_writebacks, 0,
            "ablation never switches"
        );
    }

    #[test]
    #[should_panic(expected = "one workload instance per core")]
    fn wrong_workload_count_panics() {
        let cfg = SystemConfig::isca_table1();
        let engine = build_engine(EngineKind::None, &cfg, 1 << 20);
        let _ = Machine::new(cfg, engine, vec![]);
    }
}
