//! Machine-readable experiment records.
//!
//! Every `table*` binary writes its reproduced rows as JSON to
//! `target/experiments/<id>.json`, so `EXPERIMENTS.md` and downstream
//! tooling never parse console output.

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// One experiment's machine-readable output.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. `"table5"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Reproduced data rows.
    pub rows: Vec<serde_json::Value>,
}

impl serde_json::ToJson for ExperimentRecord {
    fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("id".into(), self.id.clone().into());
        m.insert("title".into(), self.title.clone().into());
        m.insert("rows".into(), serde_json::Value::Array(self.rows.clone()));
        serde_json::Value::Object(m)
    }
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: &str, title: &str) -> ExperimentRecord {
        ExperimentRecord {
            id: id.to_string(),
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push(&mut self, row: serde_json::Value) {
        self.rows.push(row);
    }

    /// The default output directory (`target/experiments` under the
    /// workspace, or `NETPU_EXPERIMENT_DIR` when set).
    pub fn default_dir() -> PathBuf {
        if let Ok(dir) = std::env::var("NETPU_EXPERIMENT_DIR") {
            return PathBuf::from(dir);
        }
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")
    }

    /// Writes the record as pretty JSON into the
    /// [default directory](ExperimentRecord::default_dir), returning
    /// the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_in(&ExperimentRecord::default_dir())
    }

    /// Writes the record as pretty JSON into `dir`, returning the path.
    pub fn write_in(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        fs::write(&path, serde_json::to_string_pretty(self)?)?;
        Ok(path)
    }

    /// Writes the record, merging with any existing record of the same
    /// id already on disk. Rows are keyed by their `"name"` field: rows
    /// in `self` replace same-named rows, every other existing row
    /// survives (unnamed rows are kept). This lets several benches feed
    /// one trajectory file — e.g. `serve_scaling` and `fleet_replay`
    /// both own rows of `BENCH_serve.json` — without clobbering each
    /// other's results.
    pub fn write_merged(&self) -> std::io::Result<PathBuf> {
        self.write_merged_in(&ExperimentRecord::default_dir())
    }

    /// [`write_merged`](ExperimentRecord::write_merged) into `dir`.
    pub fn write_merged_in(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let new_names: Vec<&str> = self
            .rows
            .iter()
            .filter_map(|r| r.get("name").and_then(serde_json::Value::as_str))
            .collect();
        let mut merged: Vec<serde_json::Value> = Vec::new();
        if let Ok(text) = fs::read_to_string(&path) {
            if let Ok(old) = serde_json::from_str::<serde_json::Value>(&text) {
                if let Some(rows) = old.get("rows").and_then(serde_json::Value::as_array) {
                    for row in rows {
                        let keep = match row.get("name").and_then(serde_json::Value::as_str) {
                            Some(name) => !new_names.contains(&name),
                            None => true,
                        };
                        if keep {
                            merged.push(row.clone());
                        }
                    }
                }
            }
        }
        merged.extend(self.rows.iter().cloned());
        let combined = ExperimentRecord {
            id: self.id.clone(),
            title: self.title.clone(),
            rows: merged,
        };
        fs::write(&path, serde_json::to_string_pretty(&combined)?)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("netpu-record-test");
        let mut r = ExperimentRecord::new("test_rec", "A test");
        r.push(serde_json::json!({"k": 1}));
        let path = r.write_in(&dir).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["id"], "test_rec");
        assert_eq!(v["rows"][0]["k"], 1);
    }

    #[test]
    fn merged_writes_replace_by_name_and_keep_the_rest() {
        let dir = std::env::temp_dir().join("netpu-record-merge-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = ExperimentRecord::new("test_merge", "first");
        first.push(serde_json::json!({"name": "a", "v": 1}));
        first.push(serde_json::json!({"name": "b", "v": 2}));
        first.write_merged_in(&dir).unwrap();
        let mut second = ExperimentRecord::new("test_merge", "second");
        second.push(serde_json::json!({"name": "b", "v": 20}));
        second.push(serde_json::json!({"name": "c", "v": 3}));
        let path = second.write_merged_in(&dir).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let rows = v.get("rows").and_then(serde_json::Value::as_array).unwrap();
        assert_eq!(rows.len(), 3, "a survives, b replaced, c appended");
        assert_eq!(rows[0]["name"], "a");
        assert_eq!(rows[0]["v"], 1);
        assert_eq!(rows[1]["name"], "b");
        assert_eq!(rows[1]["v"], 20);
        assert_eq!(rows[2]["name"], "c");
    }
}
