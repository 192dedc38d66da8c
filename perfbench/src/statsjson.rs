//! Reads the server's `STATS` reply: one line of JSON holding
//! `counters`, `gauges` and `histograms` objects with integer values
//! (the `uucs-telemetry` registry encoding).

use std::collections::BTreeMap;

/// One histogram as `STATS` reports it. Only `count` and `mean` are
/// used: the log2-bucket percentiles are too coarse to compare.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Hist {
    /// Recorded samples.
    pub count: f64,
    /// Their mean (nanoseconds for timing histograms).
    pub mean: f64,
}

/// A parsed `STATS` snapshot.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

impl Stats {
    /// A counter's value (0 when the server never registered it).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's count and mean (zeros when absent).
    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(name).copied().unwrap_or_default()
    }

    /// Sum of the gauges whose names start with `prefix` and end with
    /// `suffix` (per-shard families such as
    /// `server.shard.results.<i>.records`).
    pub fn gauge_sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .fold(0.0, |sum, (_, v)| sum + v)
    }

    /// Sum of the counters whose names start with `prefix` and end
    /// with `suffix`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .fold(0.0, |sum, (_, v)| sum + v)
    }

    /// Parses a `STATS` payload.
    pub fn parse(json: &str) -> Result<Stats, String> {
        let mut p = Parser {
            s: json.as_bytes(),
            i: 0,
        };
        let top = p.value()?;
        let Value::Obj(top) = top else {
            return Err("STATS is not a JSON object".into());
        };
        let mut out = Stats::default();
        for (section, v) in top {
            let Value::Obj(entries) = v else {
                return Err(format!("STATS section {section} is not an object"));
            };
            for (name, v) in entries {
                match (section.as_str(), v) {
                    ("counters", Value::Num(n)) => {
                        out.counters.insert(name, n);
                    }
                    ("gauges", Value::Num(n)) => {
                        out.gauges.insert(name, n);
                    }
                    ("histograms", Value::Obj(fields)) => {
                        let get = |k: &str| {
                            fields
                                .iter()
                                .find(|(f, _)| f == k)
                                .and_then(|(_, v)| match v {
                                    Value::Num(n) => Some(*n),
                                    Value::Obj(_) => None,
                                })
                        };
                        out.hists.insert(
                            name,
                            Hist {
                                count: get("count").unwrap_or(0.0),
                                mean: get("mean_ns").unwrap_or(0.0),
                            },
                        );
                    }
                    _ => return Err(format!("unexpected STATS entry {section}.{name}")),
                }
            }
        }
        Ok(out)
    }
}

enum Value {
    Num(f64),
    Obj(Vec<(String, Value)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    fields.push((k, v));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_registry_encoding() {
        let json = r#"{"counters":{"a.b":3,"server.wal.results.rotations":2},"gauges":{"server.shard.results.0.records":10,"server.shard.results.1.records":-1},"histograms":{"h":{"count":4,"mean_ns":250,"p50_ns":128,"p90_ns":256,"p99_ns":512,"max_ns":600}}}"#;
        let s = Stats::parse(json).unwrap();
        assert_eq!(s.counter("a.b"), 3.0);
        assert_eq!(s.counter("missing"), 0.0);
        assert_eq!(s.gauge_sum("server.shard.results.", ".records"), 9.0);
        assert_eq!(
            s.hist("h"),
            Hist {
                count: 4.0,
                mean: 250.0
            }
        );
        assert_eq!(s.counter_sum("server.wal.", ".rotations"), 2.0);
        assert!(Stats::parse("{").is_err());
        assert!(Stats::parse(r#"{"counters":{"x":{}}}"#).is_err());
    }
}
