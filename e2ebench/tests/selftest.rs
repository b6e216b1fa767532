//! The benchmark's self-test: every workload runs for a second, traced and
//! untraced, passes every check, and prints exactly the metrics
//! `BENCHMARK.json` lists, with their units.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use swift_e2ebench::metrics::{registry, WORKLOADS};

/// A JSON value, enough of it for `BENCHMARK.json` and the result line.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("{other:?} is not a number"),
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
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected '{}' at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at {}",
            self.i
        );
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
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => {
                    let start = self.i - 1;
                    while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).expect("utf-8"));
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
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `name -> unit` of one metric section of `BENCHMARK.json`.
fn section(bench: &Json, key: &str) -> BTreeMap<String, String> {
    bench
        .get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json next to e2ebench/"))
}

#[test]
fn registry_matches_benchmark_json() {
    let bench = benchmark_json();
    let listed: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(listed, WORKLOADS);
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let want: Vec<(String, String)> = bench
            .get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect();
        let got: Vec<(String, String)> = registry(traced)
            .into_iter()
            .map(|e| (e.name, e.unit.to_string()))
            .collect();
        assert_eq!(got, want, "{key} in BENCHMARK.json and the registry differ");
    }
}

fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run e2ebench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Parser::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_workload_passes_its_checks_and_prints_its_metrics() {
    let bench = benchmark_json();
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let listed = section(&bench, key);
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{workload} --trace {trace}"
            );
            assert_eq!(
                result.get("failed").num(),
                0.0,
                "{workload} --trace {trace}"
            );
            assert!(result.get("attempted").num() >= 1.0);
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").num().is_finite(), "{name} has no value");
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(printed, listed, "{workload} --trace {trace}");
            // A metric of a layer this workload does not run reads 0; an
            // end-to-end metric is never 0.
            for e in registry(trace == "1") {
                let value = result.get("metrics").get(&e.name).get("value").num();
                if !e.measured_by(workload) {
                    assert_eq!(value, 0.0, "{workload}: {}", e.name);
                } else if trace == "0" {
                    assert!(value > 0.0, "{workload}: {} reads {value}", e.name);
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "sql_tpch",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "sql_tpch",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "sql_tpch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run e2ebench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
