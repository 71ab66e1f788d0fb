//! Self-tests of the benchmark harness: short runs of every workload in
//! both modes, checked for determinism and for agreement with the metric
//! names `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::OnceLock;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const WORKLOADS: [&str; 3] = ["sealed-uniform", "sim-radix", "sim-ycsb"];

/// A minimal JSON value, enough for the result line and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get_opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn get(&self, key: &str) -> &Json {
        self.get_opt(key)
            .unwrap_or_else(|| panic!("missing key {key} in {self:?}"))
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected '{}' at {}", c as char, self.i);
        self.i += 1;
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(word.as_bytes()));
        self.i += word.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap(),
                            );
                            self.i += 4;
                        }
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Copy one UTF-8 sequence.
                    let start = self.i - 1;
                    while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                }
            }
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// One finished run: its manifest and its result line.
struct Run {
    manifest: Json,
    result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result.get("metrics").get(name).get("value").num()
    }

    fn metric_names(&self) -> Vec<String> {
        match self.result.get("metrics") {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    fn manifest(&self, key: &str) -> String {
        self.manifest.get(key).str().to_owned()
    }
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let lines: Vec<&str> = stdout.lines().collect();
    Run {
        manifest: Parser::parse(lines[0]).get("manifest").clone(),
        result: Parser::parse(lines.last().expect("output has a result line")),
    }
}

/// Two untraced and two traced runs of every workload, made once and
/// shared by the tests (`[untraced, untraced, traced, traced]`).
fn runs() -> &'static BTreeMap<&'static str, [Run; 4]> {
    static RUNS: OnceLock<BTreeMap<&'static str, [Run; 4]>> = OnceLock::new();
    RUNS.get_or_init(|| {
        WORKLOADS
            .iter()
            .map(|&w| {
                (
                    w,
                    [run(w, false), run(w, false), run(w, true), run(w, true)],
                )
            })
            .collect()
    })
}

fn declared_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    match Parser::parse(&text).get(section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| m.get("name").str().to_owned())
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

#[test]
fn every_run_is_correct() {
    for (w, runs) in runs() {
        for r in runs {
            assert_eq!(r.result.get("correct"), &Json::Bool(true), "{w}");
            assert_eq!(r.result.get("failed").num(), 0.0, "{w}");
            assert!(r.result.get("attempted").num() >= 1.0, "{w}");
        }
    }
}

#[test]
fn deterministic_metrics_repeat_for_the_same_seed() {
    for (w, [a, b, ta, tb]) in runs() {
        for name in ["bytes_per_access", "sim_cycles_per_op"] {
            assert_eq!(a.metric(name), b.metric(name), "{w} {name}");
        }
        // Tracing must not change what is simulated: every run of one
        // seed retires the same ops into the same final state.
        for key in [
            "bytes_moved",
            "sim_cycles",
            "physical_accesses",
            "state_digest",
        ] {
            if a.manifest.get_opt(key).is_some() {
                for r in [b, ta, tb] {
                    assert_eq!(a.manifest(key), r.manifest(key), "{w} {key}");
                }
            }
        }
        let counts = [
            "oram.paths_per_access",
            "oram.posmap_paths_per_access",
            "oram.bg_evictions_per_access",
            "oram.plb_hit_ratio",
            "oram.stash_peak",
            "cache.llc_miss_ratio",
            "core.prefetch_hit_ratio",
            "mem.paths_per_demand",
            "mem.posmap_paths_per_demand",
            "mem.dummy_paths_per_demand",
            "mem.busy_share",
            "sim.writebacks_per_op",
        ];
        for name in counts {
            assert_eq!(ta.metric(name), tb.metric(name), "{w} {name}");
        }
    }
}

#[test]
fn emitted_names_match_benchmark_json() {
    let end_to_end = declared_names("end_to_end");
    let per_layer = declared_names("per_layer");
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
    }
    for (w, [a, _, t, _]) in runs() {
        assert_eq!(a.metric_names(), end_to_end, "{w} untraced names");
        assert_eq!(t.metric_names(), per_layer, "{w} traced names");
    }
}

#[test]
fn traced_spans_cover_the_traced_time() {
    for (w, [_, _, t, _]) in runs() {
        let coverage = t.metric("trace.coverage");
        assert!((0.95..=1.0).contains(&coverage), "{w} coverage {coverage}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(BIN)
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
