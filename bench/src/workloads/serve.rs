//! `serve-calls` and `serve-mixed`: a closed loop of two connections,
//! one tenant each, against an in-process `llva-serve` over its framed
//! TCP protocol. Callers wait for replies, so the loop is closed: each
//! connection sends its next request when the previous one is answered.

use super::{warm_supervisor, Layers, Oracle, Round, Workload};
use crate::inputs::{call_args, service_module, TextPool};
use crate::stats::median;
use crate::trace::Tracer;
use llva_core::bytecode::encode_module;
use llva_core::parser::parse_module;
use llva_core::printer::print_module;
use llva_serve::proto::{read_frame, write_frame};
use llva_serve::server::Client;
use llva_serve::{ExecService, Request, Response, ServeConfig, Server, TenantQuota};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

const CONNECTIONS: u64 = 2;
/// `serve-calls`: calls per connection per round, 0.1 s like a round
/// of `serve-mixed` and for the same reason.
const CALLS_PER_ROUND: usize = 128;
/// Distinct `tiny(a, b)` argument pairs per connection.
const ARG_PAIRS: usize = 256;
/// `serve-mixed`: a connection's round is 15 calls of `work(2000)` then
/// one load. Rounds this short (0.1 s) give the lower quartile some 90
/// of them to choose from in a 10 s run: in eight alternating pairs of
/// runs, rounds four times as long spread 17% between runs, these 5%.
const MIXED_CALLS_PER_ROUND: usize = 15;
const WORK_N: u64 = 2000;
const MODULE: &str = "svc";

type Interval = (Instant, Instant);

fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = Instant::now();
    let out = f();
    (out, (start, Instant::now()))
}

fn millis((start, end): Interval) -> f64 {
    (end - start).as_nanos() as f64 / 1e6
}

struct Op {
    request: Request,
    /// The reference answer, where the script knows it: `work` answers
    /// depend on the text loaded before them, which `check` tracks.
    expect: Option<u64>,
    took: Interval,
    response: Response,
}

struct Connection {
    tenant: String,
    client: Client,
    /// `tiny` argument pairs with their reference answers.
    args: Vec<([u64; 2], u64)>,
    next_arg: usize,
    pool: TextPool,
    /// The module text the tenant holds now, and held when the last
    /// round began.
    text: String,
    round_start_text: String,
    /// Reference answer of `work(WORK_N)` for the text now loaded.
    expect_work: u64,
    ops: Vec<Op>,
    op_spans: Vec<u32>,
}

/// One operation replayed below the wire.
struct Replayed {
    encode: Interval,
    decode: Interval,
    /// `ExecService::call` or `ExecService::load_module`, no TCP.
    service: Interval,
    /// Calls: `Supervisor::run` on the same entry. Loads: the same text
    /// loaded by a second tenant, which finds the published image.
    inner: Interval,
    /// Loads only: the text through the assembly parser.
    parse: Option<Interval>,
}

pub struct Serve {
    mixed: bool,
    service: ExecService,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    connections: Vec<Connection>,
    bytecode_bytes: u64,
    /// Traced runs: a second service, never behind TCP, that the round
    /// is replayed against.
    probe: Option<ExecService>,
}

fn call(entry: &str, args: &[u64]) -> Request {
    Request::Call {
        module: MODULE.to_string(),
        entry: entry.to_string(),
        args: args.to_vec(),
        fuel: 0,
    }
}

fn load(text: String) -> Request {
    Request::Load {
        module: MODULE.to_string(),
        source: text,
    }
}

fn probe_tenant(connection: usize) -> String {
    format!("probe-{connection}")
}

fn warm_tenant(connection: usize) -> String {
    format!("probe-warm-{connection}")
}

impl Serve {
    pub fn set_up(seed: u64, mixed: bool, traced: bool, oracle: &mut Oracle) -> Serve {
        let module = service_module();
        let template = print_module(&module);
        let service = ExecService::new(ServeConfig::default());
        let server = Server::bind(service.clone(), "127.0.0.1:0", TenantQuota::default())
            .expect("bind localhost");
        let addr = server.local_addr().expect("bound address");
        let accept = server.spawn();

        let probe = traced.then(|| ExecService::new(ServeConfig::default()));
        let mut bytecode_bytes = 0;
        let mut connections = Vec::new();
        for c in 0..CONNECTIONS {
            let tenant = format!("bench-{c}");
            let mut client =
                Client::connect(addr, &tenant).expect("connect to the in-process server");
            let mut pool = TextPool::new(&template, seed, c);
            // serve-calls loads the module as written, so its second
            // tenant attaches the image the first one published;
            // serve-mixed starts every tenant on a text of its own
            let text = if mixed {
                pool.next_text()
            } else {
                template.clone()
            };
            let loaded = parse_module(&text).expect("service module text parses");
            // the module as written: a pool text's salt is the seed's
            bytecode_bytes += encode_module(&module).len() as u64;
            let args = call_args(seed, c, ARG_PAIRS)
                .into_iter()
                .map(|pair| (pair, oracle.reference(&module, "tiny", &pair).0))
                .collect();
            let expect_work = oracle.reference(&loaded, "work", &[WORK_N]).0;
            if let Some(p) = &probe {
                for name in [probe_tenant(c as usize), warm_tenant(c as usize)] {
                    p.add_tenant(&name, TenantQuota::default())
                        .expect("probe tenant");
                }
            }
            let reply = client
                .request(&load(text.clone()))
                .expect("load over the wire");
            assert!(
                matches!(reply, Response::Loaded { .. }),
                "set-up load failed: {reply:?}"
            );
            connections.push(Connection {
                tenant,
                client,
                args,
                next_arg: 0,
                pool,
                round_start_text: text.clone(),
                text,
                expect_work,
                ops: Vec::new(),
                op_spans: Vec::new(),
            });
        }
        Serve {
            mixed,
            service,
            addr,
            accept: Some(accept),
            connections,
            bytecode_bytes,
            probe,
        }
    }

    /// The requests one connection sends in a round, built before the
    /// clock starts.
    fn script(mixed: bool, c: &mut Connection) -> Vec<(Request, Option<u64>)> {
        if !mixed {
            return (0..CALLS_PER_ROUND)
                .map(|_| {
                    let (pair, expect) = c.args[c.next_arg % c.args.len()];
                    c.next_arg += 1;
                    (call("tiny", &pair), Some(expect))
                })
                .collect();
        }
        let mut script: Vec<_> = (0..MIXED_CALLS_PER_ROUND)
            .map(|_| (call("work", &[WORK_N]), None))
            .collect();
        c.text = c.pool.next_text();
        script.push((load(c.text.clone()), None));
        script
    }
}

impl Workload for Serve {
    fn round(&mut self, t: &mut Tracer) -> Round {
        let mixed = self.mixed;
        let scripts: Vec<_> = self
            .connections
            .iter_mut()
            .map(|c| {
                c.round_start_text.clone_from(&c.text);
                Serve::script(mixed, c)
            })
            .collect();
        let barrier = Barrier::new(self.connections.len());
        let start = Instant::now();
        std::thread::scope(|s| {
            for (c, script) in self.connections.iter_mut().zip(scripts) {
                let barrier = &barrier;
                s.spawn(move || {
                    c.ops.clear();
                    barrier.wait();
                    for (request, expect) in script {
                        let (response, took) = timed(|| c.client.request(&request));
                        let response = response.expect("the server answers");
                        c.ops.push(Op {
                            request,
                            expect,
                            took,
                            response,
                        });
                    }
                });
            }
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let mut op_ns = Vec::new();
        for c in &mut self.connections {
            c.op_spans.clear();
            for op in &c.ops {
                op_ns.push((op.took.1 - op.took.0).as_nanos() as u64);
                c.op_spans.push(t.record_op("serve.server.wire", op.took));
            }
        }
        Round { op_ns, wall_ns }
    }

    fn check(&mut self, oracle: &mut Oracle) -> usize {
        let mut failed = 0;
        for c in &mut self.connections {
            for op in &c.ops {
                let ok = match (&op.request, &op.response) {
                    (Request::Load { source, .. }, Response::Loaded { .. }) => {
                        let module = parse_module(source).expect("pool text parses");
                        c.expect_work = oracle.reference(&module, "work", &[WORK_N]).0;
                        true
                    }
                    (
                        Request::Call { .. },
                        Response::Value {
                            value, degraded, ..
                        },
                    ) => *value == op.expect.unwrap_or(c.expect_work) && !degraded,
                    // Busy, any other error, a trap, exhausted fuel
                    _ => false,
                };
                failed += usize::from(!ok);
            }
        }
        failed
    }

    fn bytecode_bytes(&self) -> u64 {
        self.bytecode_bytes
    }

    /// Replays the round below the wire with the same two-way
    /// concurrency the live round had — a serial replay would charge
    /// every queue hop a thread wake-up the live loop never pays.
    fn probe(&mut self, t: &mut Tracer, layers: &mut Layers) {
        let service = self
            .probe
            .as_ref()
            .expect("traced set-up built the probe service");
        let barrier = Barrier::new(self.connections.len());
        let replays: Vec<Vec<Replayed>> = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .connections
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let barrier = &barrier;
                    s.spawn(move || replay(service, i, c, barrier))
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("replay thread"))
                .collect()
        });
        let (mut call_us, mut load_ms, mut cold_ms, mut warm_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (c, replayed) in self.connections.iter().zip(&replays) {
            for ((op, &span), r) in c.ops.iter().zip(&c.op_spans).zip(replayed) {
                t.record("serve.proto.encode", span, r.encode);
                t.record("serve.proto.decode", span, r.decode);
                match r.parse {
                    None => {
                        call_us.push(millis(r.service) * 1e3);
                        let under = t.record("serve.service.overhead", span, r.service);
                        t.record("engine.supervisor.call", under, r.inner);
                    }
                    Some(parse) => {
                        load_ms.push(millis(op.took));
                        cold_ms.push(millis(r.service));
                        warm_ms.push(millis(r.inner));
                        t.record("serve.service.load_cold", span, r.service);
                        t.record("serve.service.load_warm", 0, r.inner);
                        t.record("core.parser.parse", 0, parse);
                    }
                }
            }
        }
        t.scope("serve.metrics.render", 0, || self.service.metrics_text());
        layers.insert("serve.service.call_us", median(&call_us));
        if !load_ms.is_empty() {
            // per load, unlike the Σ-per-round rule for span times
            layers.insert("serve.server.load_p50_ms", median(&load_ms));
            layers.insert("serve.service.load_cold_ms", median(&cold_ms));
            layers.insert("serve.service.load_warm_ms", median(&warm_ms));
        }
        let (mut admitted, mut rejected, mut retries) = (0u64, 0u64, 0u64);
        for c in &self.connections {
            let counters = self
                .service
                .tenant_counters(&c.tenant)
                .expect("tenant exists");
            admitted += counters.admitted;
            rejected += counters.rejected_total();
            retries += counters.retries;
        }
        layers.insert(
            "serve.quota.reject_ratio",
            rejected as f64 / (admitted + rejected) as f64,
        );
        layers.insert("serve.service.retries", retries as f64);
    }

    fn finish(mut self: Box<Self>) {
        self.connections.clear();
        let mut admin = Client::connect(self.addr, "bench-admin").expect("connect for drain");
        let drained = admin.request(&Request::Drain {
            deadline_ms: 10_000,
        });
        assert!(
            matches!(drained, Ok(Response::Text { .. })),
            "drain failed: {drained:?}"
        );
        self.accept
            .take()
            .expect("accept loop handle")
            .join()
            .expect("accept loop exits cleanly");
        self.service.shutdown();
        if let Some(p) = &self.probe {
            p.shutdown();
        }
    }
}

/// One connection's side of the replay: brings the probe tenant to the
/// text the live tenant held when the round began, then sends every
/// operation of the round to the service directly and, in a second
/// sweep, every call to a supervisor built the way the service builds
/// its own. Two sweeps, because a supervisor run between two service
/// calls slows both: each allocates its own 16 MiB machine memory.
fn replay(service: &ExecService, index: usize, c: &Connection, barrier: &Barrier) -> Vec<Replayed> {
    let (tenant, warm) = (probe_tenant(index), warm_tenant(index));
    service
        .load_module(&tenant, MODULE, &c.round_start_text)
        .expect("probe load");
    let module = parse_module(&c.round_start_text).expect("service module text parses");
    let mut supervisor = warm_supervisor(&module);
    barrier.wait();
    let mut replayed: Vec<Replayed> = c
        .ops
        .iter()
        .map(|op| {
            let (encode, decode) = replay_codec(&op.request, &op.response);
            match &op.request {
                Request::Call { entry, args, .. } => {
                    let (answer, service_took) =
                        timed(|| service.call(&tenant, MODULE, entry, args));
                    assert!(answer.is_ok(), "probe call failed: {answer:?}");
                    // `inner` is timed in the second sweep
                    Replayed {
                        encode,
                        decode,
                        service: service_took,
                        inner: service_took,
                        parse: None,
                    }
                }
                Request::Load { source, .. } => {
                    let (cold, service_took) =
                        timed(|| service.load_module(&tenant, MODULE, source));
                    cold.expect("probe cold load");
                    let (warm_load, inner) = timed(|| service.load_module(&warm, MODULE, source));
                    warm_load.expect("probe warm load");
                    let (module, parse) = timed(|| parse_module(source));
                    module.expect("pool text parses");
                    Replayed {
                        encode,
                        decode,
                        service: service_took,
                        inner,
                        parse: Some(parse),
                    }
                }
                _ => unreachable!("the script holds calls and loads only"),
            }
        })
        .collect();
    barrier.wait();
    for (op, r) in c.ops.iter().zip(&mut replayed) {
        match &op.request {
            Request::Call { entry, args, .. } => {
                let (run, took) = timed(|| supervisor.run(entry, args));
                assert!(run.is_ok(), "probe supervisor failed: {run:?}");
                r.inner = took;
            }
            Request::Load { source, .. } => {
                supervisor = warm_supervisor(&parse_module(source).expect("pool text parses"));
            }
            _ => unreachable!("the script holds calls and loads only"),
        }
    }
    replayed
}

/// One request and its response through the frame codec on a buffer.
fn replay_codec(request: &Request, response: &Response) -> (Interval, Interval) {
    let mut wire = Vec::new();
    let ((), encode) = timed(|| {
        write_frame(&mut wire, &request.encode()).expect("write to a buffer");
        write_frame(&mut wire, &response.encode()).expect("write to a buffer");
    });
    let ((), decode) = timed(|| {
        let mut reader = wire.as_slice();
        let payload = read_frame(&mut reader)
            .expect("read from a buffer")
            .expect("a frame");
        Request::decode(&payload).expect("request decodes");
        let payload = read_frame(&mut reader)
            .expect("read from a buffer")
            .expect("a frame");
        Response::decode(&payload).expect("response decodes");
    });
    (encode, decode)
}
