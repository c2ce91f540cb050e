//! `serve-1k2-mixed`: one `ofence serve` daemon under open-loop mixed
//! load over loopback TCP, every response graded against the manifest.

use crate::cli_runs::grade_json;
use crate::disk::DiskTracker;
use crate::load::{self, SlotKind};
use crate::oracle;
use crate::proc::{fresh_dir, process_cpu_ms, process_peak_rss_mb, settle_disk, Daemon};
use crate::stats::{median, percentile, tail};
use crate::workload::{materialize, Editor, Kind, SETUP_REPS};
use crate::{metric, Ctx, Outcome};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request that has not been answered in this long has failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(15);

/// Requests still queued this long after the schedule ends fail without
/// being sent, so a wedged daemon cannot hold the run past its limit.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One newline-JSON connection to the daemon.
pub struct Conn {
    addr: String,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// Send one request line and read the one-line response. A broken
    /// connection is dropped and reopened by the next call.
    pub fn call(&mut self, request: &str) -> Result<String, String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_read_timeout(Some(REQUEST_TIMEOUT))
                .map_err(|e| e.to_string())?;
            let _ = s.set_nodelay(true);
            let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
            self.stream = Some((s, r));
        }
        let (s, r) = self.stream.as_mut().expect("connected");
        let mut line = String::new();
        let out = s
            .write_all(request.as_bytes())
            .and_then(|_| s.write_all(b"\n"))
            .and_then(|_| r.read_line(&mut line));
        match out {
            Ok(n) if n > 0 => Ok(line),
            Ok(_) => {
                self.stream = None;
                Err("connection closed".into())
            }
            Err(e) => {
                self.stream = None;
                Err(format!("request: {e}"))
            }
        }
    }
}

pub fn analyze_request(id: usize) -> String {
    format!("{{\"id\":{id},\"request_id\":\"bench-{id}\",\"method\":\"analyze\"}}")
}

/// The analyze document inside a response envelope, or why there is none.
pub fn result_of(response: &str) -> Result<serde_json::Value, String> {
    let env = oracle::parse(response.as_bytes())?;
    if env.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        return Err(format!("error response: {}", response.trim()));
    }
    env.get("result")
        .cloned()
        .ok_or_else(|| "response without result".into())
}

pub fn serve_args(kind: Kind) -> Vec<String> {
    let mut args: Vec<String> = ["corpus", "--cache-dir", "cache", "--history-dir", "hist"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(kind.analysis_flags());
    args
}

/// Connections the load generator may hold open: one per core.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Reply {
    sent: Instant,
    text: Result<String, String>,
    versions: (usize, usize),
}

/// The reply's document and its grade.
fn grade_reply(editor: &Editor, r: &Reply) -> Result<(serde_json::Value, oracle::Grade), String> {
    let doc = result_of(r.text.as_ref().map_err(|e| e.clone())?)?;
    let g = editor.grade(&doc, r.versions);
    Ok((doc, g))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up: write the corpus, start the daemon (it hydrates its empty
    // cache), serve the first, cold analyze and one warm-up no-op.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        settle_disk();
        let t0 = Instant::now();
        let root = fresh_dir(ctx.dir.join(format!("rep{rep}")))?;
        let corpus = materialize(ctx.kind, ctx.size, ctx.seed, &root.join("corpus"))?;
        let daemon = Daemon::start(&ctx.bin, &serve_args(ctx.kind), &root)?;
        let mut conn = Conn::new(&daemon.addr);
        let first = conn.call(&analyze_request(0))?;
        // Warm-up: one no-op request before the first timed one.
        conn.call(&analyze_request(1))?;
        setup_times.push(t0.elapsed().as_secs_f64());
        kept = Some((root, corpus, daemon, first));
    }
    let (root, corpus, daemon, first) = kept.expect("at least one set-up");
    let setup_grade = oracle::grade(&corpus.manifest, &result_of(&first)?);
    settle_disk();

    let editor = Mutex::new(Editor::new(corpus, root.join("corpus"), ctx.seed, true));
    let tracker = Mutex::new(DiskTracker::new(&[&root.join("cache"), &root.join("hist")]));
    let written = AtomicU64::new(0);
    let cpu0 = process_cpu_ms(daemon.pid()).unwrap_or(0.0);
    let slots = load::schedule(load::SCHEDULE_SEED, ctx.seconds, load::RATE_PER_S);
    let addr = daemon.addr.clone();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds) + DRAIN_LIMIT;
    let result = load::run(&slots, connections(), |_| {
        let mut conn = Conn::new(&addr);
        let (editor, tracker, written) = (&editor, &tracker, &written);
        move |job: &load::Job| {
            let mut edit_err = None;
            if job.kind == SlotKind::Edit {
                edit_err = editor.lock().expect("editor").edit().err();
            }
            let v_sent = editor.lock().expect("editor").version();
            let sent = Instant::now();
            let text = match edit_err {
                Some(e) => Err(e),
                None if Instant::now() > deadline => Err("not sent: drain limit passed".into()),
                None => conn.call(&analyze_request(job.seq + 2)),
            };
            let v_done = editor.lock().expect("editor").version();
            written.fetch_add(
                tracker.lock().expect("tracker").written_since(),
                Ordering::Relaxed,
            );
            Reply {
                sent,
                text,
                versions: (v_sent, v_done),
            }
        }
    });
    let cpu_ms = process_cpu_ms(daemon.pid()).unwrap_or(cpu0) - cpu0;
    let rss_mb = process_peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    let status = Conn::new(&daemon.addr)
        .call("{\"id\":0,\"method\":\"status\"}")
        .ok()
        .and_then(|s| oracle::parse(s.as_bytes()).ok());
    drop(daemon);
    let written = written.into_inner() + tracker.into_inner().expect("tracker").written_since();
    let editor = editor.into_inner().expect("editor");

    let n = result.done.len();
    let mut failures = Vec::new();
    let mut latency = Vec::new();
    let mut service = Vec::new();
    let mut within = 0;
    let mut first_keys: Option<Vec<String>> = None;
    let mut mismatches = 0;
    let mut decoys = (0, 0);
    for (job, done, reply) in &result.done {
        let lat = done.duration_since(job.due).as_secs_f64() * 1e3;
        latency.push(lat);
        service.push(done.duration_since(reply.sent).as_secs_f64() * 1e3);
        match grade_reply(&editor, reply) {
            Ok((doc, g)) if g.pass => {
                if lat <= ctx.kind.slo_ms() {
                    within += 1;
                }
                decoys = (g.decoy_pairings, g.decoy_false_positives);
                let keys = oracle::counter_keys(&doc);
                match &first_keys {
                    None => first_keys = Some(keys),
                    Some(k) if *k != keys => mismatches += 1,
                    Some(_) => {}
                }
            }
            Ok((_, g)) => failures.push(format!("request {}: {}", job.seq, g.why)),
            Err(e) => failures.push(format!("request {}: {e}", job.seq)),
        }
    }
    for f in failures.iter().take(5) {
        eprintln!("perfbench: {f}");
    }
    let t = tail(&latency);
    let latency_list: Vec<f64> = latency.iter().map(|v| v.round()).collect();
    let late = tail(&result.lateness_ms);
    let kept_schedule = load::kept_schedule(&result.lateness_ms, load::RATE_PER_S);
    if !kept_schedule {
        eprintln!(
            "perfbench: load generator fell behind (tail lateness {:.1} ms); run invalid",
            late.value
        );
    }
    let metrics = vec![
        metric("setup_s", median(&setup_times), "s"),
        metric("latency_p50_ms", median(&latency), "ms"),
        metric("latency_tail_ms", t.value, "ms"),
        metric("cpu_ms_per_op", cpu_ms / n.max(1) as f64, "ms"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric(
            "written_mb_per_op",
            written as f64 / n.max(1) as f64 / 1e6,
            "MB",
        ),
        metric("within_slo_share", within as f64 / n.max(1) as f64, "share"),
        metric(
            "ok_share",
            (n - failures.len()) as f64 / n.max(1) as f64,
            "share",
        ),
    ];
    let counter = |name: &str| {
        status
            .as_ref()
            .and_then(|s| s.get("result"))
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get(name))
            .cloned()
            .unwrap_or(serde_json::Value::Null)
    };
    let detail = vec![
        ("requests".into(), serde_json::json!(n)),
        ("slots".into(), serde_json::json!(slots.len())),
        ("connections".into(), serde_json::json!(connections())),
        ("rate_per_s".into(), serde_json::json!(load::RATE_PER_S)),
        ("setup_times_s".into(), serde_json::json!(setup_times)),
        (
            "latency_tail".into(),
            serde_json::json!({
                "percentile": t.percentile, "samples": t.samples, "beyond": t.beyond
            }),
        ),
        ("service_p50_ms".into(), serde_json::json!(median(&service))),
        (
            "generator_lateness_ms".into(),
            serde_json::json!({
                "p50": percentile(&result.lateness_ms, 50.0),
                "tail": late.value,
                "tail_percentile": late.percentile,
                "kept_schedule": kept_schedule,
            }),
        ),
        ("latencies_ms".into(), serde_json::json!(latency_list)),
        ("slo_ms".into(), serde_json::json!(ctx.kind.slo_ms())),
        ("doc_mismatch_ops".into(), serde_json::json!(mismatches)),
        ("setup_oracle".into(), grade_json(&setup_grade)),
        (
            "decoys".into(),
            serde_json::json!({"pairings": decoys.0, "false_positives": decoys.1}),
        ),
        ("serve_coalesced".into(), counter("serve_coalesced")),
        ("serve_runs".into(), counter("serve_runs")),
        (
            "failures".into(),
            serde_json::json!(failures.iter().take(5).collect::<Vec<_>>()),
        ),
    ];
    Ok(Outcome {
        attempted: n,
        failed: failures.len(),
        valid: setup_grade.pass && kept_schedule,
        metrics,
        detail,
    })
}
