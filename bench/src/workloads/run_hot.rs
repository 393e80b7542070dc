//! `run-hot`: steady-state execution of the five longest Table 2
//! programs on supervisors built once in set-up.

use super::launch::probe_supervisor_run;
use super::{healthy, ship, Layers, Oracle, Round, Shipped, Workload};
use crate::trace::Tracer;
use llva_core::bytecode::encode_module;
use llva_engine::{
    ExecutionManager, FastInterpreter, Interpreter, PreModule, SupervisedRun, Supervisor,
    SupervisorError, TargetIsa, Tier, TraceConfig,
};
use std::rc::Rc;
use std::time::Instant;

/// By reference instruction count: 21.6M, 7.4M, 5.3M, 3.7M, 3.0M.
pub const LONGEST: [&str; 5] = ["175.vpr", "300.twolf", "ptrdist-ks", "181.mcf", "188.ammp"];

pub struct RunHot {
    programs: Vec<(Shipped, Supervisor)>,
    answers: Vec<Result<SupervisedRun, SupervisorError>>,
    op_spans: Vec<u32>,
}

impl RunHot {
    pub fn set_up(oracle: &mut Oracle) -> RunHot {
        let programs = ship(&LONGEST, oracle)
            .into_iter()
            .map(|shipped| {
                let sup = Supervisor::new(shipped.module.clone(), TargetIsa::X86);
                (shipped, sup)
            })
            .collect();
        RunHot {
            programs,
            answers: Vec::new(),
            op_spans: Vec::new(),
        }
    }

    /// Σ reference instructions of one round — what turns `ops_per_s`
    /// into LLVA instructions per host second.
    pub fn ref_insts(&self) -> u64 {
        self.programs.iter().map(|(s, _)| s.ref_insts).sum()
    }
}

impl Workload for RunHot {
    fn round(&mut self, t: &mut Tracer) -> Round {
        self.answers.clear();
        self.op_spans.clear();
        let mut op_ns = Vec::with_capacity(self.programs.len());
        let start = Instant::now();
        for (_, sup) in &mut self.programs {
            let t0 = Instant::now();
            let op = t.begin_op("op");
            let run = t.scope("engine.supervisor.overhead", op, || sup.run("main", &[]));
            t.end(op);
            op_ns.push(t0.elapsed().as_nanos() as u64);
            self.answers.push(run);
            self.op_spans.push(op);
        }
        Round {
            op_ns,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    }

    fn check(&mut self, _: &mut Oracle) -> usize {
        self.programs
            .iter()
            .zip(&self.answers)
            .filter(|((shipped, _), run)| !healthy(run, shipped.expect))
            .count()
    }

    fn bytecode_bytes(&self) -> u64 {
        self.programs
            .iter()
            .map(|(s, _)| encode_module(&s.module).len() as u64)
            .sum()
    }

    fn probe(&mut self, t: &mut Tracer, layers: &mut Layers) {
        let ref_insts = self.ref_insts() as f64;
        // host ns per rung, Σ over the five programs
        let (mut interp_ns, mut fast_ns, mut traced_ns) = (0u64, 0u64, 0u64);
        let (mut trace_insts, mut fast_insts, mut side_exits) = (0u64, 0u64, 0u64);
        let mut machine = [(0u64, 0u64, 0u64); 3]; // (host ns, native insts, cycles)
        for ((shipped, _), &op) in self.programs.iter().zip(&self.op_spans) {
            let module = &shipped.module;
            let under = t.child(op, "engine.supervisor.overhead");
            probe_supervisor_run(t, under, module, None);

            let mut interp = Interpreter::new(module);
            interp_ns += timed(|| interp.run("main", &[])).1;

            let pre = Rc::new(PreModule::new(module));
            pre.decode_all();
            let mut fast = FastInterpreter::with_predecoded(pre.clone());
            fast_ns += timed(|| fast.run("main", &[])).1;
            fast_insts += fast.insts_executed();

            let mut traced = FastInterpreter::with_predecoded(pre);
            traced.enable_tracing(TraceConfig::default());
            traced_ns += timed(|| traced.run("main", &[])).1;
            let stats = traced.trace_stats().expect("tracing is on");
            trace_insts += stats.trace_insts;
            side_exits += stats.side_exits;

            for (isa, acc) in TargetIsa::ALL.into_iter().zip(&mut machine) {
                let mut mgr = ExecutionManager::new(module.clone(), isa);
                mgr.translate_all().expect("translates");
                let (out, ns) = timed(|| mgr.run("main", &[]));
                let out = out.unwrap_or_else(|e| panic!("{} on {isa}: {e}", shipped.name));
                assert_eq!(out.value, shipped.expect, "{} on {isa}", shipped.name);
                acc.0 += ns;
                acc.1 += out.stats.instructions;
                acc.2 += out.stats.cycles;
            }
        }
        let per_s = |count: f64, ns: u64| count / 1e6 / (ns as f64 / 1e9);
        layers.insert("engine.interp.minst_per_s", per_s(ref_insts, interp_ns));
        layers.insert("engine.predecode.minst_per_s", per_s(ref_insts, fast_ns));
        layers.insert("engine.traced.minst_per_s", per_s(ref_insts, traced_ns));
        layers.insert(
            "engine.traced.coverage",
            trace_insts as f64 / fast_insts as f64,
        );
        layers.insert("engine.traced.side_exits", side_exits as f64);
        let names = [
            (
                "machine.x86.minst_per_s",
                "machine.x86.native_minst_per_s",
                "machine.x86.sim_cycles",
            ),
            (
                "machine.sparc.minst_per_s",
                "machine.sparc.native_minst_per_s",
                "machine.sparc.sim_cycles",
            ),
            (
                "machine.riscv.minst_per_s",
                "machine.riscv.native_minst_per_s",
                "machine.riscv.sim_cycles",
            ),
        ];
        for ((llva, native, cycles), (ns, insts, cyc)) in names.into_iter().zip(machine) {
            layers.insert(llva, per_s(ref_insts, ns));
            layers.insert(native, per_s(insts as f64, ns));
            layers.insert(cycles, cyc as f64);
        }
        let (mut translated, mut served) = (0u64, 0u64);
        for (_, sup) in &self.programs {
            translated += sup.tier_counters()[Tier::Translated.index()].served;
            served += sup.tier_counters().iter().map(|c| c.served).sum::<u64>();
        }
        layers.insert(
            "engine.supervisor.translated_ratio",
            translated as f64 / served as f64,
        );
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}
