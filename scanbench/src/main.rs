//! `scanbench`: the repository's benchmark of the USB backdoor scanner.
//!
//! ```text
//! scanbench --workload <scan-effnet|scan-resnet> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run trains its workload's victims unless they are memoized under
//! `.scanbench/victims`, derives every scan seed from `--seed`, sets the
//! scanner up several times, then measures for `--seconds` and checks
//! every verdict it produced (see [`check`]). With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it wraps every call into a
//! layer in a span, prints the per-layer metrics, and writes the spans to
//! `.scanbench/traces/`. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! Both workloads scan offline. The USBP daemon has no workload of its
//! own: under a seeded open loop on a 2-core host a run held about ten
//! verdicts, and their median moved by 17% to 42% of itself from seed to
//! seed. Every traced run measures the daemon's layer through a
//! two-request probe instead.
//!
//! The benchmark only calls public functions of the workspace crates; it
//! changes none of them.

mod check;
mod layers;
mod scan;
mod serve;
mod stats;
mod trace;
mod victims;

use check::{Digest, Ledger};
use scan::Loaded;
use serve::Answer;
use stats::{median, tail, Tail};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{durations, Tracer};
use usb_core::UsbConfig;
use usb_eval::serve::ServeStats;
use victims::{Bundle, Seeds, Workload};

/// End-to-end metrics (`--trace 0`) and their units. There is no
/// throughput metric: two saturated closed-loop scanners complete about
/// 2 / mean(`verdict_s`) verdicts per second, which would count the same
/// noise twice.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("verdict_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("detect_acc", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`) and their units. Every traced run of
/// every workload measures all of them. Which end-to-end metric each
/// should move, and on which workload:
///
/// | layer metrics | should move | on |
/// |---|---|---|
/// | `persist.*` (`read_victim_bytes`, bundle size) | `setup_s` | both |
/// | `data.*` (`SyntheticSpec::generate`, `clean_subset`) | `setup_s` | both |
/// | `core.*` (`targeted_uap`, `refine_uap`, their work counts) | `verdict_s` | both |
/// | `nn.{infer,record,grad}_b*` on the workload's victim | `verdict_s` | both |
/// | `nn.{depthwise,silu,se,batchnorm}.*` | `verdict_s` | scan-effnet |
/// | `nn.{conv2d,relu}.*` | `verdict_s` | scan-resnet |
/// | `tensor.ssim_grad_us` | `verdict_s` | both |
/// | `tensor.gemm_xwt_us` | `verdict_s` | scan-resnet |
/// | `tensor.q8_dequant_us` | `verdict_s`, `setup_s` | scan-resnet |
/// | `serve.*` (probe latency, `Verdict.seconds`, `ServeStats`) | none listed: no workload runs the daemon | — |
/// | `host.*`, `trace.overhead_frac` | none: drift witness and tracing cost | both |
const PER_LAYER: &[(&str, &str)] = &[
    ("persist.decode_ms", "ms"),
    ("persist.bundle_kb", "KiB"),
    ("data.regen_s", "s"),
    ("data.subset_ms", "ms"),
    ("core.uap_s", "s"),
    ("core.refine_s", "s"),
    ("core.deepfool_calls", "count"),
    ("core.uap_passes", "count"),
    ("nn.infer_b1_us", "us"),
    ("nn.infer_b48_us", "us"),
    ("nn.record_b1_us", "us"),
    ("nn.grad_b1_us", "us"),
    ("nn.record_b16_us", "us"),
    ("nn.grad_b16_us", "us"),
    ("nn.conv2d.infer_us", "us"),
    ("nn.conv2d.record_us", "us"),
    ("nn.conv2d.grad_us", "us"),
    ("nn.depthwise.infer_us", "us"),
    ("nn.depthwise.record_us", "us"),
    ("nn.depthwise.grad_us", "us"),
    ("nn.batchnorm.infer_us", "us"),
    ("nn.batchnorm.record_us", "us"),
    ("nn.batchnorm.grad_us", "us"),
    ("nn.silu.infer_us", "us"),
    ("nn.silu.record_us", "us"),
    ("nn.silu.grad_us", "us"),
    ("nn.relu.infer_us", "us"),
    ("nn.relu.record_us", "us"),
    ("nn.relu.grad_us", "us"),
    ("nn.linear.infer_us", "us"),
    ("nn.linear.record_us", "us"),
    ("nn.linear.grad_us", "us"),
    ("nn.se.infer_us", "us"),
    ("nn.se.record_us", "us"),
    ("nn.se.grad_us", "us"),
    ("tensor.ssim_grad_us", "us"),
    ("tensor.gemm_xwt_us", "us"),
    ("tensor.q8_dequant_us", "us"),
    ("serve.queue_wait_s", "s"),
    ("serve.queue_wait_tail_s", "s"),
    ("serve.compute_hit_s", "s"),
    ("serve.compute_miss_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.protocol_errors", "count"),
    ("host.calib_ms", "ms"),
    ("host.calib_end_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Times the scanner is set up per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    prepare: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = Some(false);
    let mut prepare = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--prepare" {
            prepare = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: if prepare {
            0
        } else {
            seed.ok_or("--seed is required")?
        },
        seconds: if prepare {
            1.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: trace.ok_or("--trace must be 0 or 1")?,
        prepare,
    })
}

/// Trains any missing victim in a child process, so training never shares
/// an address space (or a peak-RSS mark) with the measurement.
fn prepare_in_child(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--prepare", "--workload", args.workload.name()])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("starting the victim trainer: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("victim training failed: {status}"))
    }
}

/// Metric values by name, printed with their units from the tables above.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

fn verdict_metrics(m: &mut Metrics, latencies: &[f64]) -> Result<Tail, String> {
    if latencies.is_empty() {
        return Err("no verdict completed in the measured phase".to_owned());
    }
    let t = tail(latencies);
    m.set("verdict_s", median(latencies));
    m.set("verdict_tail_s", t.value);
    Ok(t)
}

/// Runs a set-up [`SETUP_REPEATS`] times (dropping each before the next);
/// returns the last one and the median seconds.
fn timed_setups<T>(mut once: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(once()?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&seconds)))
}

fn record_scans(
    ledger: &mut Ledger,
    victims: &[Loaded],
    records: &[scan::ScanRecord],
    seeds: Seeds,
    config: &'static str,
) {
    for r in records {
        let v = &victims[r.bundle];
        ledger.verdict(
            (v.label, seeds.at(r.seed_index), config),
            r.digest.clone(),
            &v.truth,
        );
    }
}

/// Records the probe's answers: each is a standard-config verdict on the
/// first bundle at the first scan seed.
fn record_answers(ledger: &mut Ledger, bundle: &Bundle, answers: &[Answer], scan_seed: u64) {
    for a in answers {
        match &a.result {
            Ok(served) => {
                ledger.verdict(
                    (bundle.label, scan_seed, "standard"),
                    served.digest.clone(),
                    &bundle.truth,
                );
            }
            Err(e) => ledger.fail(format!("request {}: {e}", a.id)),
        }
    }
}

/// `--trace 0` of an offline workload.
fn offline(
    args: &Args,
    bundles: &[Bundle],
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let seeds = Seeds(args.seed);
    let off = Tracer::new(false);
    let (victims, setup_s) = timed_setups(|| scan::load_all(bundles, seeds.at(0), &off))?;
    m.set("setup_s", setup_s);
    let config = UsbConfig::standard().with_workers(1);
    stats::reset_peak_rss();
    let (records, wall, panics) = scan::measured_phase(&victims, seeds, args.seconds, config);
    m.set("peak_rss_mb", stats::peak_rss_mb());
    record_scans(ledger, &victims, &records, seeds, "standard");
    for note in panics {
        ledger.fail(note);
    }
    let secs: Vec<f64> = records.iter().map(|r| r.seconds).collect();
    let t = verdict_metrics(m, &secs)?;
    println!(
        "scans: {} by {} scanners in {wall:.2} s; tail is p{:.0} of {} samples",
        records.len(),
        scan::SCANNERS,
        t.percentile,
        t.samples
    );
    for (b, v) in victims.iter().enumerate() {
        let mut s: Vec<f64> = records
            .iter()
            .filter(|r| r.bundle == b)
            .map(|r| r.seconds)
            .collect();
        s.sort_by(f64::total_cmp);
        println!("  {:<18} {} scans: {s:.3?}", v.label, s.len());
    }
    Ok(())
}

fn serve_layer_metrics(m: &mut Metrics, answers: &[Answer], stats: &ServeStats) {
    let ok: Vec<(f64, &serve::Served)> = answers
        .iter()
        .filter_map(|a| a.result.as_ref().ok().map(|s| (a.latency, s)))
        .collect();
    let wait: Vec<f64> = ok
        .iter()
        .map(|(lat, s)| (lat - s.server_s).max(0.0))
        .collect();
    let compute = |hit: bool| -> Vec<f64> {
        ok.iter()
            .filter(|(_, s)| s.cache_hit == hit)
            .map(|(_, s)| s.server_s)
            .collect()
    };
    let or_nan = |xs: &[f64]| if xs.is_empty() { f64::NAN } else { median(xs) };
    let hits = compute(true);
    m.set("serve.queue_wait_s", or_nan(&wait));
    m.set(
        "serve.queue_wait_tail_s",
        if wait.is_empty() {
            f64::NAN
        } else {
            tail(&wait).value
        },
    );
    m.set("serve.compute_hit_s", or_nan(&hits));
    m.set("serve.compute_miss_s", or_nan(&compute(false)));
    m.set(
        "serve.cache_hit_ratio",
        hits.len() as f64 / ok.len().max(1) as f64,
    );
    m.set("serve.rejected", stats.rejected as f64);
    m.set("serve.failed", stats.failed as f64);
    m.set("serve.protocol_errors", stats.protocol_errors as f64);
}

/// Scans `victim` untraced and traced side by side (one scanner each);
/// both verdicts go to the ledger under the same key. Returns the
/// traced/untraced time ratio minus one and the traced scan's work.
fn traced_pair(
    victim: &Loaded,
    scan_seed: u64,
    config: UsbConfig,
    name: &'static str,
    tracer: &Tracer,
    job: u64,
    ledger: &mut Ledger,
) -> (f64, scan::ScanWork) {
    let config = config.with_workers(1);
    let ((plain, plain_s), (traced, w)) = std::thread::scope(|s| {
        let a = s.spawn(|| scan::scan(victim, scan_seed, config));
        let b = scan::scan_traced(victim, scan_seed, config, tracer, job);
        (a.join().expect("the untraced scanner panicked"), b)
    });
    let traced_s = tracer
        .spans()
        .iter()
        .find(|s| s.name == "scan" && s.job == job)
        .map_or(f64::NAN, trace::Span::seconds);
    let key = (victim.label, scan_seed, name);
    ledger.verdict(key, Digest::of_outcome(&plain), &victim.truth);
    ledger.verdict(key, Digest::of_outcome(&traced), &victim.truth);
    (traced_s / plain_s - 1.0, w)
}

/// `--trace 1` of any workload.
fn traced(
    args: &Args,
    bundles: &[Bundle],
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<trace::Tracer, String> {
    let seeds = Seeds(args.seed);
    let tracer = Tracer::new(true);
    let mut victims = scan::load_all(bundles, seeds.at(0), &tracer)?;
    let pairs: Vec<(f64, scan::ScanWork)> = victims
        .iter()
        .enumerate()
        .map(|(i, v)| {
            traced_pair(
                v,
                seeds.at(0),
                UsbConfig::standard(),
                "standard",
                &tracer,
                i as u64 + 1,
                ledger,
            )
        })
        .collect();
    // The daemon's verdict must equal the offline scan of the same bundle
    // and seed, which `traced_pair` recorded under the same key.
    let (answers, stats) = serve::probe(&bundles[0], seeds.at(0), &tracer)?;
    record_answers(ledger, &bundles[0], &answers, seeds.at(0));
    let ms = |name| median(&durations(&tracer.spans(), name)) * 1e3;
    m.set("persist.decode_ms", ms("persist.decode"));
    m.set(
        "persist.bundle_kb",
        median(&victims.iter().map(|v| v.bundle_kb).collect::<Vec<_>>()),
    );
    m.set("data.regen_s", ms("data.regen") / 1e3);
    m.set("data.subset_ms", ms("data.subset"));
    m.set("core.uap_s", ms("core.uap") / 1e3);
    m.set("core.refine_s", ms("core.refine") / 1e3);
    let counts = |f: fn(&scan::ScanWork) -> usize| {
        median(&pairs.iter().map(|(_, w)| f(w) as f64).collect::<Vec<_>>())
    };
    m.set("core.deepfool_calls", counts(|w| w.deepfool_calls));
    m.set("core.uap_passes", counts(|w| w.uap_passes));
    let overheads: Vec<f64> = pairs.iter().map(|(o, _)| *o).collect();
    m.set("trace.overhead_frac", median(&overheads));
    serve_layer_metrics(m, &answers, &stats);

    let first = &victims[0];
    let mut named: Vec<(String, f64)> = layers::victim_passes(&first.model, &first.data);
    named.extend(layers::standalone_layers(&first.model));
    named.push((
        "tensor.ssim_grad_us".to_owned(),
        layers::ssim_grad(&first.data),
    ));
    named.push((
        "tensor.gemm_xwt_us".to_owned(),
        layers::gemm_xwt(&mut victims[0].model),
    ));
    let q8_us = match victims
        .iter_mut()
        .find(|v| v.dtype == usb_tensor::Dtype::Q8)
    {
        Some(v) => layers::q8_dequant(&mut v.model),
        None => {
            // The EfficientNet workload has no Q8 bundle: quantize a copy.
            let mut copy = usb_attacks::persist::read_victim_bytes(&bundles[0].bytes)
                .map_err(|e| format!("decoding {}: {e}", bundles[0].label))?
                .victim
                .model;
            copy.quantize_weights(usb_tensor::Dtype::Q8);
            layers::q8_dequant(&mut copy)
        }
    };
    named.push(("tensor.q8_dequant_us".to_owned(), q8_us));
    for (name, value) in named {
        let key = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(n, _)| *n)
            .ok_or_else(|| format!("layer timing {name} is not a declared metric"))?;
        m.set(key, value);
    }
    Ok(tracer)
}

fn json_metrics(m: &Metrics, table: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v =
            m.0.get(name)
                .copied()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} has no finite value ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(parts.join(", "))
}

/// The run's environment record, printed beside the metrics: the
/// host-speed witness, the kernel tier and thread settings, and the
/// largest Q8/f32 per-class log-norm drift the run saw (`null` when it
/// scanned no Q8 twin).
fn env_record(args: &Args, calib_start: f64, calib_end: f64, q8_drift: Option<f64>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let threads = std::env::var(usb_tensor::par::THREADS_ENV).map_or_else(
        |_| "null".to_owned(),
        |v| format!("\"{}\"", v.escape_default()),
    );
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_calib_start_ms\": {calib_start}, \"host_calib_end_ms\": {calib_end}, \
         \"kernel\": \"{}\", \"nproc\": {nproc}, \"usb_threads\": {threads}, \"profile\": \"{}\", \
         \"q8_log_drift\": {}, \"q8_log_tol\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        usb_tensor::kernels::tier_name(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        q8_drift.map_or_else(|| "null".to_owned(), |d| d.to_string()),
        check::LOG_NORM_TOL,
    )
}

fn run(args: &Args) -> Result<bool, String> {
    prepare_in_child(args)?;
    let bundles = victims::bundles(args.workload)?;
    let calib_start = stats::calib_ms();
    let mut m = Metrics::default();
    let mut ledger = Ledger::default();
    let tracer = if args.trace {
        Some(traced(args, &bundles, &mut m, &mut ledger)?)
    } else {
        offline(args, &bundles, &mut m, &mut ledger)?;
        None
    };
    let calib_end = stats::calib_ms();
    let attempted = ledger.attempted();
    let failed = ledger.failed();
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        m.set("host.calib_ms", calib_start);
        m.set("host.calib_end_ms", calib_end);
    } else {
        m.set("detect_acc", ledger.detect_acc());
        m.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    }
    if let Some(tracer) = &tracer {
        let spans = tracer.spans();
        println!("self time by span (calls, total s, self s):");
        for (name, (n, total, own)) in trace::self_times(&spans) {
            println!("  {name:<16} {n:>5} {total:>10.4} {own:>10.4}");
        }
        let path = victims::checkout_root()
            .join(".scanbench")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {} spans to {}", spans.len(), path.display());
    }
    for (name, unit) in table {
        if let Some(v) = m.0.get(name) {
            println!("{name:<26} {v:>14.6} {unit}");
        }
    }
    println!(
        "failed_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    for note in &ledger.notes {
        println!("FAILED: {note}");
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "env {}",
        env_record(args, calib_start, calib_end, ledger.q8_log_drift)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json_metrics(&m, table)?
    );
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scanbench: {e}");
            eprintln!("usage: scanbench --workload <scan-effnet|scan-resnet> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if args.prepare {
        victims::prepare(args.workload);
        return;
    }
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("scanbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        assert_eq!(names_in(json, "per_layer"), layer);
        for w in ["scan-effnet", "scan-resnet"] {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
            assert_eq!(Workload::parse(w).map(Workload::name), Some(w));
        }
    }

    #[test]
    fn metrics_must_all_be_present_and_finite() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        assert!(json_metrics(&m, &[("setup_s", "s")]).is_ok());
        assert!(json_metrics(&m, &[("verdict_s", "s")]).is_err());
        m.set("verdict_s", f64::NAN);
        assert!(json_metrics(&m, &[("verdict_s", "s")]).is_err());
    }

    #[test]
    fn arguments_are_validated() {
        let ok = |s: &str| parse_args(&s.split(' ').map(str::to_owned).collect::<Vec<_>>());
        assert!(ok("--workload scan-resnet --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(ok("--workload serve-mix --seed 3 --seconds 10 --trace 0").is_err());
        assert!(ok("--workload scan-resnet --seed 3 --seconds 10 --trace 2").is_err());
        assert!(ok("--workload scan-resnet --seconds 10 --trace 0").is_err());
    }
}
