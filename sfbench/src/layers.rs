//! The traced run: the per-layer ledger of one workload.
//!
//! The same request stream as the untraced run goes through a backend
//! that wraps every call into a layer's public function in a span: on the
//! CLI lanes each request is replayed in-process the way `minicc build`
//! strings the layers together (read the tree, load state, build, save
//! state, write the report, write the image); on the warm lane each
//! request is the real round trip to the daemon. Counts are read from
//! public results only — the JSON build report and its metrics block,
//! `CacheStats`, `CasStats`, `sfcc_faultfs::op_counts`, the daemon's
//! `stats` reply. After the last request a series of probes calls each
//! layer directly on the workload's final tree. Nothing here feeds an
//! end-to-end metric.

use crate::e2e::{self, with_store, Backend, Class, Site};
use crate::lane;
use crate::oracle::{check_in_order, RUN_INPUTS};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::{Recorder, Span};
use crate::workloads::{Lane, Plan, Workload};
use sfcc::{persist, Compiler, Durability, FunctionCache};
use sfcc_buildsys::serve::SessionFlags;
use sfcc_buildsys::{Builder, DepGraph, Project};
use sfcc_daemon::{protocol, Request};
use sfcc_passes::{default_pipeline, run_pipeline, run_pipeline_parallel, NeverSkip, RunOptions};
use sfcc_trace::json::{self, Value};
use sfcc_trace::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The 18 distinct passes of `default_pipeline`, one `passes.pass_ms.*`
/// metric each.
pub const PASSES: [&str; 18] = [
    "mem2reg",
    "simplify-cfg",
    "instcombine",
    "const-fold",
    "dce",
    "inline",
    "sccp",
    "reassociate",
    "gvn",
    "cse",
    "memfwd",
    "dse",
    "copy-prop",
    "licm",
    "loop-unroll",
    "loop-delete",
    "adce",
    "peephole",
];

/// Gauges of the build report that a resident session accumulates over
/// its lifetime; on the warm lane a request's own share is the difference
/// to the previous request of the same session.
const CUMULATIVE: [&str; 6] = [
    "cache.hits",
    "cache.misses",
    "cas.hits",
    "cas.misses",
    "cas.evictions",
    "cas.publishes",
];

/// What one request left behind besides its spans.
struct RequestRecord {
    id: usize,
    class: Class,
    /// The metrics block of the request's build report, cumulative gauges
    /// already reduced to this request's share.
    gauges: BTreeMap<String, u64>,
    /// Durable operations and fsyncs of an in-process session.
    durable_ops: Option<(u64, u64)>,
}

/// The backend of the traced run (one per client).
pub struct Traced {
    site: Site,
    client: usize,
    flags: SessionFlags,
    rec: Recorder,
    requests: Vec<RequestRecord>,
    /// Cumulative gauges after the client's previous own-tree request.
    previous: BTreeMap<String, u64>,
    /// Latencies of real `minicc build` processes run right after an
    /// in-process no-op session of the same tree.
    process_noop_ms: Vec<f64>,
    /// Values measured by the probes, by metric name.
    probed: BTreeMap<String, f64>,
    probe_budget: Duration,
    errors: Vec<String>,
}

/// The gauges of a build report's `"metrics"` block.
fn gauges_of(report: &Value) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(block) = report.get("metrics") else {
        return out;
    };
    let Ok(snapshot) = MetricsSnapshot::from_json(block) else {
        return out;
    };
    if let Some(names) = block.as_obj() {
        for (name, _) in names {
            if let Some(value) = snapshot.scalar(name) {
                out.insert(name.clone(), value);
            }
        }
    }
    out
}

impl Traced {
    fn new(site: &Site, client: usize, flags: SessionFlags, probe_budget: Duration) -> Traced {
        Traced {
            site: site.clone(),
            client,
            flags,
            rec: Recorder::new(),
            requests: Vec::new(),
            previous: BTreeMap::new(),
            process_noop_ms: Vec::new(),
            probed: BTreeMap::new(),
            probe_budget,
            errors: Vec::new(),
        }
    }

    /// One build request replayed in-process, layer by layer, exactly as
    /// `minicc build` strings them together. Returns the build report's
    /// JSON text (parsing it is the harness's business, not the session's).
    fn session(
        rec: &mut Recorder,
        name: &'static str,
        flags: &SessionFlags,
        dir: &Path,
        out: &Path,
    ) -> Result<String, String> {
        rec.span(name, "buildsys", |rec| {
            let project = rec
                .span("project_read", "buildsys", |_| Project::from_dir(dir))
                .map_err(|e| format!("cannot load `{}`: {e}", dir.display()))?;
            let compiler = rec.span("state_load", "core", |_| Compiler::new(flags.config(dir)));
            let mut builder = Builder::new(compiler);
            builder = match flags.jobs {
                Some(jobs) => builder.with_jobs(jobs),
                None => builder.with_parallelism(),
            };
            let report = rec
                .span("build", "buildsys", |_| builder.build(&project))
                .map_err(|e| e.to_string())?;
            if flags.stateful {
                rec.span("state_save", "core", |_| builder.compiler().save_state())
                    .map_err(|e| format!("cannot save state: {e}"))?;
            }
            let text = rec.span("report_json", "buildsys", |_| {
                let text = report.to_json();
                std::fs::write(dir.join(sfcc_buildsys::serve::REPORT_FILE), &text).map(|()| text)
            });
            let text = text.map_err(|e| format!("cannot write the report: {e}"))?;
            rec.span("image_save", "backend", |_| {
                sfcc_backend::image::save_with(&report.program, out, Durability::Fast)
            })
            .map_err(|e| format!("cannot write `{}`: {e}", out.display()))?;
            rec.span("teardown", "buildsys", |_| drop((builder, report, project)));
            Ok(text)
        })
    }

    fn push_request(
        &mut self,
        id: usize,
        class: Class,
        report: &Value,
        own_tree: bool,
        durable_ops: Option<(u64, u64)>,
    ) {
        let mut gauges = gauges_of(report);
        if self.site.socket.is_some() && own_tree {
            // A resident session's counters only ever grow.
            for name in CUMULATIVE {
                let now = gauges.get(name).copied().unwrap_or(0);
                let before = self.previous.insert(name.to_string(), now).unwrap_or(0);
                gauges.insert(name.to_string(), now.saturating_sub(before));
            }
        }
        self.requests.push(RequestRecord {
            id,
            class,
            gauges,
            durable_ops,
        });
    }
}

impl Traced {
    /// The spans named `name` that belong to this client's requests of
    /// `class`.
    fn spans_of<'a>(&'a self, class: Class, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.requests
            .iter()
            .filter(move |r| r.class == class)
            .flat_map(move |r| {
                self.rec
                    .spans()
                    .iter()
                    .filter(move |s| s.request == r.id && s.name == name)
            })
    }
}

impl Backend for Traced {
    fn build(
        &mut self,
        class: Class,
        dir: &Path,
        out: &Path,
        store: Option<&Path>,
    ) -> (Duration, Result<(), String>) {
        let id = self.rec.next_request();
        let own_tree = class != Class::Full || self.requests.is_empty();
        let started = Instant::now();
        match &self.site.socket {
            Some(socket) => {
                let flags = &self.site.flags;
                let reply = self.rec.span("session", "buildsys", |rec| {
                    rec.span("roundtrip", "daemon", |_| {
                        lane::warm_build(socket, dir, out, flags).1
                    })
                });
                let elapsed = started.elapsed();
                match reply {
                    Ok(reply) => {
                        let report = reply.body.get("report").unwrap_or(&Value::Null);
                        self.push_request(id, class, report, own_tree, None);
                        (elapsed, Ok(()))
                    }
                    Err(e) => (elapsed, Err(e)),
                }
            }
            None => {
                let mut flags = self.flags.clone();
                flags.cas = store.map(Path::to_path_buf);
                let before = sfcc_faultfs::op_counts();
                let report = Traced::session(&mut self.rec, "session", &flags, dir, out);
                let elapsed = started.elapsed();
                let ops = sfcc_faultfs::op_counts().delta_since(&before);
                let outcome = report.and_then(|text| json::parse(&text)).map(|report| {
                    let durable = (ops.total(), ops.sync_files + ops.sync_dirs);
                    self.push_request(id, class, &report, own_tree, Some(durable));
                });
                if class == Class::Noop && outcome.is_ok() {
                    // The same unchanged tree once more, by the real
                    // process: the difference is what a process costs.
                    let flags = with_store(&self.site.flags, store);
                    let (t, r) = lane::cli_build(&self.site.minicc, dir, out, &flags);
                    match r {
                        Ok(()) => self.process_noop_ms.push(t.as_secs_f64() * 1e3),
                        Err(e) => self.errors.push(e),
                    }
                }
                (elapsed, outcome)
            }
        }
    }

    fn finish(&mut self, site: &Site, project: &Project, dir: &Path) {
        // Probes of the second client would only repeat the first's.
        if self.client == 0 {
            if let Err(e) = self.probe(site, project, dir) {
                self.errors.push(format!("probes: {e}"));
            }
        }
    }
}

fn live_insts(modules: &[sfcc_ir::Module]) -> f64 {
    modules
        .iter()
        .flat_map(|m| &m.functions)
        .map(|f| f.live_inst_count() as f64)
        .sum()
}

/// Milliseconds `f` took.
fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let result = f();
    (started.elapsed().as_secs_f64() * 1e3, result)
}

impl Traced {
    /// Calls `f` inside a probe span `reps` times (fewer once the probe
    /// budget is spent, never fewer than once); returns the median length
    /// in milliseconds and the last result.
    fn reps<R>(
        &mut self,
        deadline: Instant,
        reps: usize,
        name: &'static str,
        layer: &'static str,
        mut f: impl FnMut() -> R,
    ) -> (f64, R) {
        let mut samples = Vec::with_capacity(reps);
        let mut last = None;
        for rep in 0..reps.max(1) {
            if rep > 0 && Instant::now() >= deadline {
                break;
            }
            let (ms, result) = self.rec.span(name, layer, |_| time_ms(&mut f));
            samples.push(ms);
            last = Some(result);
        }
        (median(&samples), last.expect("at least one repetition ran"))
    }

    fn put(&mut self, name: &str, value: f64) {
        self.probed.insert(name.to_string(), value);
    }

    /// Direct calls into each layer's public functions on the final tree.
    fn probe(&mut self, site: &Site, project: &Project, dir: &Path) -> Result<(), String> {
        self.rec.outside_requests();
        let deadline = Instant::now() + self.probe_budget;
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let scratch = site.root.join("probe");
        std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;

        // frontend: the whole tree through parse + check.
        let graph = DepGraph::build(project).map_err(|e| e.to_string())?;
        let order = graph.topo_order().to_vec();
        let source_bytes: usize = project.iter().map(|(_, src)| src.len()).sum();
        let (parse_ms, checked) = self.reps(deadline, 3, "parse_check", "frontend", || {
            check_in_order(project, &order)
        });
        let (checked, env) = checked?;
        self.put("frontend.parse_check_ms", parse_ms);
        self.put(
            "frontend.mb_per_s",
            source_bytes as f64 / 1e6 / (parse_ms / 1e3).max(1e-9),
        );

        // ir: lowering every module.
        let (lower_ms, lowered) = self.reps(deadline, 3, "lower", "ir", || {
            checked
                .iter()
                .map(|m| sfcc_ir::lower_module(m, &env))
                .collect::<Vec<_>>()
        });
        self.put("ir.lower_ms", lower_ms);
        self.put("ir.insts_lowered", live_insts(&lowered));

        // passes: the default pipeline over every module, nothing skipped,
        // on one worker and on all cores.
        let pipeline = default_pipeline();
        let (serial_ms, optimized) = self.reps(deadline, 2, "pipeline.jobs1", "passes", || {
            let mut modules = lowered.clone();
            for module in &mut modules {
                run_pipeline(module, &pipeline, &NeverSkip, RunOptions::default());
            }
            modules
        });
        let (parallel_ms, _) = self.reps(deadline, 2, "pipeline.jobsN", "passes", || {
            let mut modules = lowered.clone();
            sfcc_pool::scope(cores, |pool| {
                for module in &mut modules {
                    run_pipeline_parallel(
                        module,
                        &pipeline,
                        Arc::new(NeverSkip),
                        RunOptions::default(),
                        pool,
                    );
                }
            });
        });
        self.put("passes.pipeline_ms", serial_ms);
        self.put(
            "passes.parallel_speedup_x",
            serial_ms / parallel_ms.max(1e-9),
        );
        self.put("passes.insts_after", live_insts(&optimized));

        // backend: code generation, link, image round trip, execution.
        let (codegen_ms, objects) = self.reps(deadline, 3, "codegen", "backend", || {
            optimized
                .iter()
                .map(sfcc_backend::compile_object)
                .collect::<Result<Vec<_>, _>>()
        });
        let objects = objects.map_err(|e| format!("codegen: {e:?}"))?;
        self.put("backend.codegen_ms", codegen_ms);
        let (link_ms, program) = self.reps(deadline, 3, "link", "backend", || {
            sfcc_backend::link_objects(&objects)
        });
        let program = program.map_err(|e| format!("link: {e:?}"))?;
        self.put("backend.link_ms", link_ms);
        self.put("backend.code_insts", program.total_code_size() as f64);
        let image = scratch.join("probe.sbx");
        let (save_ms, saved) = self.reps(deadline, 3, "image_save", "backend", || {
            sfcc_backend::image::save_with(&program, &image, Durability::Fast)
        });
        saved.map_err(|e| e.to_string())?;
        self.put("backend.image_save_ms", save_ms);
        let (load_ms, loaded) = self.reps(deadline, 3, "image_load", "backend", || {
            sfcc_backend::load_image(&image)
        });
        let loaded = loaded?;
        self.put("backend.image_load_ms", load_ms);
        let (vm_ms, _) = self.reps(deadline, 3, "vm_run", "backend", || {
            for &n in &RUN_INPUTS {
                let _ = sfcc_backend::run(&loaded, "main.main", &[n], Default::default());
            }
        });
        self.put("backend.vm_run_ms", vm_ms);

        // core: compiling one module the way the compiler's own driver
        // does (the last library module: `main` imports everything).
        if let Some(name) = order.iter().rev().find(|n| n.as_str() != "main") {
            let source = project.file(name).unwrap_or_default();
            let config = self.flags.config(&scratch.join("nowhere"));
            let (compile_ms, _) = self.reps(deadline, 3, "compile_module", "core", || {
                Compiler::new(config.clone())
                    .compile(name, source, &env)
                    .is_ok()
            });
            self.put("core.compile_module_ms", compile_ms);
        }

        // query: a resident builder asked to build the same project twice;
        // the second build only validates.
        let mut builder = Builder::new(Compiler::new(self.flags.config(dir))).with_jobs(1);
        self.rec
            .span("resident_full", "buildsys", |_| builder.build(project))
            .map_err(|e| e.to_string())?;
        let (noop_ms, _) = self.reps(deadline, 3, "noop_validate", "query", || {
            builder.build(project).is_ok()
        });
        self.put("query.noop_validate_ms", noop_ms);
        drop(builder);

        // state, core, faultfs: the persisted state of the final tree.
        if self.flags.stateful {
            let base = dir.join(".sfcc-state");
            let want_cache = self.flags.fn_cache;
            let (_, state) = self.reps(deadline, 1, "persist_load", "core", || {
                persist::load(&base, true, want_cache)
            });
            self.put("state.records", state.db.function_count() as f64);
            let (encode_ms, bytes) = self.reps(deadline, 3, "state_encode", "state", || {
                sfcc_state::statefile::to_bytes(&state.db)
            });
            self.put("state.encode_ms", encode_ms);
            self.put("core.state_bytes", bytes.len() as f64);
            let (decode_ms, _) = self.reps(deadline, 3, "state_decode", "state", || {
                sfcc_state::statefile::from_bytes(&bytes).is_ok()
            });
            self.put("state.decode_ms", decode_ms);
            let commit_dir = sfcc_faultfs::CommitDir::new(&scratch.join(".probe-state"));
            let (commit_ms, _) = self.reps(deadline, 3, "commit", "faultfs", || {
                commit_dir
                    .commit(&[("state", bytes.as_slice())], Durability::Fast)
                    .is_ok()
            });
            self.put("faultfs.commit_ms", commit_ms);
            if want_cache {
                let cache_bytes = state.cache.to_bytes();
                let (decode_ms, _) = self.reps(deadline, 3, "fncache_decode", "core", || {
                    FunctionCache::from_bytes(&cache_bytes).is_ok()
                });
                self.put("core.fncache_decode_ms", decode_ms);
                let keys: Vec<_> = lowered
                    .iter()
                    .flat_map(|m| sfcc::fncache::context_fingerprints(m).into_values())
                    .collect();
                let cache = &state.cache;
                let (lookup_ms, _) = self.reps(deadline, 3, "fncache_lookup", "core", || {
                    keys.iter().filter(|&&k| cache.lookup(k).is_some()).count()
                });
                self.put(
                    "core.fncache_lookup_ns",
                    lookup_ms * 1e6 / keys.len().max(1) as f64,
                );
            }
        }

        // cas: publish every optimized function to a fresh store, then
        // look each one up again.
        if site.workload.lane == Lane::CasCheckout {
            let mut flags = self.flags.clone();
            flags.cas = Some(scratch.join("probe-store"));
            let compiler = Compiler::new(flags.config(&scratch));
            let store = compiler.cas().ok_or("the probe compiler has no store")?;
            let keyed: Vec<(String, String, sfcc_ir::Fingerprint, sfcc_ir::Function)> = lowered
                .iter()
                .zip(&optimized)
                .flat_map(|(before, after)| {
                    let keys = sfcc::fncache::context_fingerprints(before);
                    after.functions.iter().filter_map(move |f| {
                        let key = *keys.get(&f.name)?;
                        Some((after.name.clone(), f.name.clone(), key, f.clone()))
                    })
                })
                .collect();
            let inserts: Vec<_> = keyed.iter().map(|(_, _, k, f)| (*k, f.clone())).collect();
            let (publish_ms, ()) = self.rec.span("cas_publish", "cas", |_| {
                time_ms(|| store.publish(&inserts))
            });
            self.put("cas.publish_ms", publish_ms);
            let (lookup_ms, hits) = self.reps(deadline, 3, "cas_lookup", "cas", || {
                keyed
                    .iter()
                    .filter(|(m, f, k, _)| store.lookup(m, f, *k).is_some())
                    .count()
            });
            if hits != keyed.len() {
                self.errors.push(format!(
                    "cas probe: {hits} of {} published functions were served back",
                    keyed.len()
                ));
            }
            self.put("cas.lookup_us", lookup_ms * 1e3 / keyed.len().max(1) as f64);
        }

        // daemon: the protocol floor, the codec alone, and the counters.
        if let Some(socket) = &site.socket {
            let pings: Vec<f64> = (0..20)
                .filter_map(|_| {
                    self.rec.span("ping", "daemon", |_| {
                        let started = Instant::now();
                        sfcc_daemon::roundtrip(socket, &Request::bare("ping"))
                            .ok()
                            .map(|_| started.elapsed().as_secs_f64() * 1e3)
                    })
                })
                .collect();
            self.put("daemon.ping_rtt_ms", median(&pings));
            let request = Request {
                cmd: "build".to_string(),
                dir: Some(dir.display().to_string()),
                out: Some(dir.with_extension("sbx").display().to_string()),
                args: site.flags.clone(),
                ..Request::default()
            };
            let rounds = 1000;
            let (codec_ms, _) = self.reps(deadline, 3, "frame_codec", "daemon", || {
                let mut decoded = 0usize;
                for _ in 0..rounds {
                    let mut wire = Vec::new();
                    let _ = protocol::write_frame(&mut wire, request.to_json().as_bytes());
                    if let Ok(Some(payload)) = protocol::read_frame(&mut wire.as_slice()) {
                        let text = String::from_utf8(payload).unwrap_or_default();
                        decoded += usize::from(Request::parse(&text).is_ok());
                    }
                }
                decoded
            });
            self.put("daemon.frame_codec_us", codec_ms * 1e3 / rounds as f64);
            if let Ok(reply) = sfcc_daemon::roundtrip(socket, &Request::bare("stats")) {
                let counter = |key: &str| {
                    reply
                        .body
                        .get("daemon")
                        .and_then(|d| d.get(key))
                        .and_then(Value::as_u64)
                        .unwrap_or(0) as f64
                };
                self.put("daemon.busy_rejections", counter("busy"));
                self.put("daemon.timeouts", counter("timeouts"));
                self.put("daemon.sessions_created", counter("sessions_created"));
            }
        }

        // pool: the fixed cost of fanning a batch out, with nothing to do.
        let items = 256usize;
        let batches: Vec<Vec<usize>> = (0..items).map(|i| vec![i]).collect();
        let (batch_ms, _) = self.reps(deadline, 3, "run_batched", "pool", || {
            sfcc_pool::scope(cores, |pool| {
                sfcc_pool::run_batched(Some(pool), vec![0u8; items], &batches, |_, _| {})
            })
        });
        self.put("pool.batch_overhead_us", batch_ms * 1e3 / items as f64);

        // In-process sessions of the unchanged final tree: the parts of a
        // request the warm lane cannot show from outside, and — recorder
        // on against recorder off — what the harness's own spans cost.
        let out = scratch.join("session.sbx");
        let mut flags = self.flags.clone();
        flags.cas = (site.workload.lane == Lane::CasCheckout).then(|| site.root.join("c0.store"));
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for round in 0..6 {
            let enabled = round % 2 == 0;
            self.rec.set_enabled(enabled);
            let before = sfcc_faultfs::op_counts();
            let (ms, report) =
                time_ms(|| Traced::session(&mut self.rec, "session.probe", &flags, dir, &out));
            self.rec.set_enabled(true);
            report?;
            if enabled {
                let ops = sfcc_faultfs::op_counts().delta_since(&before);
                self.put("probe.durable_ops", ops.total() as f64);
                self.put("probe.fsyncs", (ops.sync_files + ops.sync_dirs) as f64);
                on.push(ms);
            } else {
                off.push(ms);
            }
        }
        self.put(
            "trace.harness_overhead_pct",
            (median(&on) - median(&off)) / median(&off).max(1e-9) * 100.0,
        );
        Ok(())
    }
}

/// What the traced run hands back.
pub struct LayerRun {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Requests and checks attempted (the coverage rule is one check).
    pub attempted: u64,
    /// Requests and checks failed.
    pub failed: u64,
    /// The trace document (`trace-<workload>.json`).
    pub trace_json: String,
    /// Failure messages, for the operator.
    pub errors: Vec<String>,
}

/// `(name, unit, better)` of every per-layer metric, in reporting order.
pub fn per_layer_spec() -> Vec<(String, &'static str, &'static str)> {
    let fixed: [(&str, &str, &str); 56] = [
        ("buildsys.session_ms", "ms", "lower"),
        ("buildsys.project_read_ms", "ms", "lower"),
        ("buildsys.build_ms", "ms", "lower"),
        ("buildsys.report_json_ms", "ms", "lower"),
        ("buildsys.cli_overhead_ms", "ms", "lower"),
        ("buildsys.unattributed_ms", "ms", "lower"),
        ("buildsys.modules_rebuilt", "count", "lower"),
        ("buildsys.fn_tasks_executed", "count", "lower"),
        ("buildsys.cutoff_saved", "count", "higher"),
        ("query.hits", "count", "higher"),
        ("query.misses", "count", "lower"),
        ("query.hit_ratio", "ratio", "higher"),
        ("query.noop_validate_ms", "ms", "lower"),
        ("core.state_load_ms", "ms", "lower"),
        ("core.state_save_ms", "ms", "lower"),
        ("core.state_bytes", "B", "lower"),
        ("core.fncache_hit_ratio", "ratio", "higher"),
        ("core.fncache_lookup_ns", "ns", "lower"),
        ("core.fncache_decode_ms", "ms", "lower"),
        ("core.compile_module_ms", "ms", "lower"),
        ("frontend.parse_check_ms", "ms", "lower"),
        ("frontend.mb_per_s", "MB/s", "higher"),
        ("ir.lower_ms", "ms", "lower"),
        ("ir.insts_lowered", "count", "lower"),
        ("passes.pipeline_ms", "ms", "lower"),
        ("passes.parallel_speedup_x", "x", "higher"),
        ("passes.insts_after", "count", "lower"),
        ("passes.cost_units", "count", "lower"),
        ("passes.slots_active", "count", "lower"),
        ("passes.slots_dormant", "count", "lower"),
        ("passes.slots_skipped", "count", "higher"),
        ("passes.skip_ratio", "ratio", "higher"),
        ("backend.codegen_ms", "ms", "lower"),
        ("backend.link_ms", "ms", "lower"),
        ("backend.image_save_ms", "ms", "lower"),
        ("backend.image_load_ms", "ms", "lower"),
        ("backend.code_insts", "count", "lower"),
        ("backend.vm_run_ms", "ms", "lower"),
        ("state.encode_ms", "ms", "lower"),
        ("state.decode_ms", "ms", "lower"),
        ("state.records", "count", "lower"),
        ("cas.hit_ratio", "ratio", "higher"),
        ("cas.lookup_us", "us", "lower"),
        ("cas.publish_ms", "ms", "lower"),
        ("cas.bytes", "B", "lower"),
        ("cas.evictions", "count", "lower"),
        ("faultfs.commit_ms", "ms", "lower"),
        ("faultfs.ops_per_build", "count", "lower"),
        ("faultfs.fsyncs_per_build", "count", "lower"),
        ("daemon.ping_rtt_ms", "ms", "lower"),
        ("daemon.frame_codec_us", "us", "lower"),
        ("daemon.busy_rejections", "count", "lower"),
        ("daemon.timeouts", "count", "lower"),
        ("daemon.sessions_created", "count", "lower"),
        ("pool.batch_overhead_us", "us", "lower"),
        ("trace.harness_overhead_pct", "%", "lower"),
    ];
    let mut spec: Vec<(String, &'static str, &'static str)> = fixed
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    spec.extend(
        PASSES
            .iter()
            .map(|pass| (format!("passes.pass_ms.{pass}"), "ms", "lower")),
    );
    spec
}

/// Folds the clients' records into the per-layer metrics.
fn assemble(backends: &[Traced]) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let first = &backends[0];
    values.extend(first.probed.iter().map(|(k, v)| (k.clone(), *v)));

    // Per-request figures are those of the incremental builds: the
    // requests `incr_p50_ms` is made of.
    let incr: Vec<(&Traced, &RequestRecord)> = backends
        .iter()
        .flat_map(|b| b.requests.iter().map(move |r| (b, r)))
        .filter(|(_, r)| r.class == Class::Incr)
        .collect();
    let n = incr.len().max(1) as f64;
    let mean = |name: &str| -> f64 {
        incr.iter()
            .map(|(_, r)| r.gauges.get(name).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            / n
    };
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    // The median length of the spans named `name` under incremental
    // requests; the in-process probe sessions stand in where the requests
    // themselves have no such span (the warm lane).
    let span_ms = |name: &str| -> f64 {
        let mut samples: Vec<f64> = backends
            .iter()
            .flat_map(|b| b.spans_of(Class::Incr, name))
            .map(Span::ms)
            .collect();
        if samples.is_empty() {
            let spans = first.rec.spans();
            samples.extend(
                spans
                    .iter()
                    .filter(|s| s.request == 0 && s.name == name)
                    .filter(|s| s.parent.is_some_and(|p| spans[p].name == "session.probe"))
                    .map(Span::ms),
            );
        }
        median(&samples)
    };

    let session_ms = span_ms("session");
    values.insert("buildsys.session_ms".into(), session_ms);
    values.insert("buildsys.project_read_ms".into(), span_ms("project_read"));
    let warm = first.site.socket.is_some();
    values.insert(
        "buildsys.build_ms".into(),
        if warm {
            median(
                &incr
                    .iter()
                    .map(|(_, r)| r.gauges.get("build.wall_ns").copied().unwrap_or(0) as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        } else {
            span_ms("build")
        },
    );
    values.insert("buildsys.report_json_ms".into(), span_ms("report_json"));
    let unattributed: Vec<f64> = backends
        .iter()
        .flat_map(|b| {
            b.spans_of(Class::Incr, "session")
                .map(|s| b.rec.self_ms(s.id))
        })
        .collect();
    values.insert("buildsys.unattributed_ms".into(), median(&unattributed));
    let process_noop: Vec<f64> = backends
        .iter()
        .flat_map(|b| b.process_noop_ms.iter().copied())
        .collect();
    let session_noop: Vec<f64> = backends
        .iter()
        .flat_map(|b| b.spans_of(Class::Noop, "session"))
        .map(Span::ms)
        .collect();
    values.insert(
        "buildsys.cli_overhead_ms".into(),
        if process_noop.is_empty() {
            0.0
        } else {
            median(&process_noop) - median(&session_noop)
        },
    );
    values.insert(
        "buildsys.modules_rebuilt".into(),
        mean("build.rebuilt_count"),
    );
    values.insert(
        "buildsys.fn_tasks_executed".into(),
        mean("fngrain.fn_tasks_executed"),
    );
    values.insert("buildsys.cutoff_saved".into(), mean("fngrain.cutoff_saved"));
    values.insert("query.hits".into(), mean("query.hits"));
    values.insert("query.misses".into(), mean("query.misses"));
    values.insert(
        "query.hit_ratio".into(),
        ratio(mean("query.hits"), mean("query.misses")),
    );
    values.insert("core.state_load_ms".into(), span_ms("state_load"));
    values.insert("core.state_save_ms".into(), span_ms("state_save"));
    values.insert(
        "core.fncache_hit_ratio".into(),
        ratio(mean("cache.hits"), mean("cache.misses")),
    );
    values.insert(
        "passes.cost_units".into(),
        mean("build.executed_cost_units"),
    );
    let (active, dormant, skipped) = (
        mean("outcomes.active"),
        mean("outcomes.dormant"),
        mean("outcomes.skipped"),
    );
    values.insert("passes.slots_active".into(), active);
    values.insert("passes.slots_dormant".into(), dormant);
    values.insert("passes.slots_skipped".into(), skipped);
    values.insert("passes.skip_ratio".into(), ratio(skipped, active + dormant));
    for pass in PASSES {
        values.insert(
            format!("passes.pass_ms.{pass}"),
            mean(&format!("pass.{pass}.total_ns")) / 1e6,
        );
    }
    values.insert(
        "cas.hit_ratio".into(),
        ratio(mean("cas.hits"), mean("cas.misses")),
    );
    values.insert("cas.bytes".into(), mean("cas.bytes"));
    values.insert("cas.evictions".into(), mean("cas.evictions"));
    let in_process: Vec<(u64, u64)> = incr.iter().filter_map(|(_, r)| r.durable_ops).collect();
    let (ops, fsyncs) = if in_process.is_empty() {
        (
            values.get("probe.durable_ops").copied().unwrap_or(0.0),
            values.get("probe.fsyncs").copied().unwrap_or(0.0),
        )
    } else {
        let k = in_process.len() as f64;
        (
            in_process.iter().map(|o| o.0 as f64).sum::<f64>() / k,
            in_process.iter().map(|o| o.1 as f64).sum::<f64>() / k,
        )
    };
    values.insert("faultfs.ops_per_build".into(), ops);
    values.insert("faultfs.fsyncs_per_build".into(), fsyncs);
    values
}

/// Runs `workload` traced for about `seconds` and returns the per-layer
/// metrics and the trace.
///
/// # Errors
///
/// The harness itself could not run; see [`e2e::run_with`].
pub fn run(
    minicc: &Path,
    workload: &Workload,
    seed: u64,
    plan: &Plan,
    out: &Path,
) -> Result<LayerRun, String> {
    // Requests get half of the run, the probes the other half.
    let request_plan = plan.traced();
    let probe_budget = plan.budget / 2;
    let owned: Vec<String> = workload.flags.iter().map(|f| f.to_string()).collect();
    let flags = SessionFlags::parse(&owned).map_err(|e| format!("workload flags: {e}"))?;
    let (run, backends) =
        e2e::run_with(minicc, workload, seed, 0, &request_plan, out, |site, id| {
            Traced::new(site, id, flags.clone(), probe_budget)
        })?;

    let values = assemble(&backends);
    let metrics = per_layer_spec()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric::new(name, unit, value, 1)
        })
        .collect();

    // The ledger rule: what a session's children do not cover is shown
    // (`buildsys.unattributed_ms`) and may not exceed a twentieth.
    let mut errors = run.errors.clone();
    let (mut attempted, mut failed) = (run.ops.attempted, run.ops.failed);
    for backend in &backends {
        attempted += 1;
        let coverage = backend.rec.coverage("session");
        if coverage < 0.95 {
            failed += 1;
            errors.push(format!(
                "client {}: session spans are only {:.1} % covered by their children",
                backend.client,
                coverage * 100.0
            ));
        }
        failed += backend.errors.len() as u64;
        attempted += backend.errors.len() as u64;
        errors.extend(backend.errors.iter().cloned());
    }
    Ok(LayerRun {
        metrics,
        attempted,
        failed,
        trace_json: backends[0].rec.to_json(workload.name, seed),
        errors,
    })
}

/// Where the trace of `workload` is written under `out`.
pub fn trace_path(out: &Path, workload: &str) -> PathBuf {
    out.join(format!("trace-{workload}.json"))
}
