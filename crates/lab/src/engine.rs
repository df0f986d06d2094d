//! The parallel experiment engine: a work-stealing scheduler over
//! `std::thread`, a content-addressed result cache, and the run
//! manifest.
//!
//! The scheduler primitive itself ([`parallel_map`] and friends) lives
//! in `disksim::par` so the fleet simulator can shard its event loop
//! through the same discipline; this module re-exports it under its
//! historical `disklab::engine` path.

use crate::error::LabError;
use crate::experiment::{Experiment, RunOutput};
use crate::manifest::{Manifest, ManifestEntry};
use serde_json::{Map, Value};
use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

pub use disksim::par::{default_parallelism, next_job, parallel_map};

/// Where results land and how the run is executed.
pub struct Engine {
    results_dir: PathBuf,
    cache_dir: PathBuf,
    threads: usize,
    use_cache: bool,
}

/// Everything one engine run produced, beyond the files on disk.
pub struct RunSummary {
    /// This run's manifest: an entry per experiment that ran. The
    /// `manifest.json` on disk also keeps the entries of experiments
    /// this run did not touch.
    pub manifest: Manifest,
    /// `(name, text report)` pairs in manifest (name) order.
    pub reports: Vec<(String, String)>,
}

impl Engine {
    /// An engine writing into the workspace `results/` directory.
    pub fn workspace() -> std::io::Result<Engine> {
        Ok(Engine::at(crate::text::results_dir()?))
    }

    /// An engine writing into an arbitrary results directory, with the
    /// cache alongside under `.cache/`.
    pub fn at(results_dir: impl Into<PathBuf>) -> Engine {
        let results_dir = results_dir.into();
        let cache_dir = results_dir.join(".cache");
        Engine {
            results_dir,
            cache_dir,
            threads: 1,
            use_cache: true,
        }
    }

    /// Sets the worker-thread count (clamped to at least one).
    pub fn threads(mut self, threads: usize) -> Engine {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the content-addressed result cache.
    pub fn use_cache(mut self, use_cache: bool) -> Engine {
        self.use_cache = use_cache;
        self
    }

    /// The directory results are written to.
    pub fn results_path(&self) -> &Path {
        &self.results_dir
    }

    /// Runs every experiment across the worker pool, writes all result
    /// files, updates `manifest.json`, and returns the summary. The
    /// manifest update replaces the entries of the experiments that ran
    /// and keeps every other entry already on disk, so a partial run
    /// never drops the record of artifacts it did not regenerate.
    ///
    /// All experiments are attempted even if one fails; the first
    /// failure (in submission order) is then reported.
    pub fn run(&self, experiments: Vec<Box<dyn Experiment>>) -> Result<RunSummary, LabError> {
        fs::create_dir_all(&self.results_dir)?;
        if self.use_cache {
            fs::create_dir_all(&self.cache_dir)?;
        }
        let started = Instant::now();

        let workers = self.threads.clamp(1, experiments.len().max(1));
        // One deque per worker; idle workers steal from the back of
        // their peers' deques.
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for i in 0..experiments.len() {
            queues[i % workers].lock().expect("queue lock").push_back(i);
        }

        let (tx, rx) = mpsc::channel();
        let experiments = &experiments;
        let queues = &queues;
        thread::scope(|scope| {
            for worker in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    while let Some(i) = next_job(queues, worker) {
                        let outcome = self.execute(experiments[i].as_ref());
                        if tx.send((i, outcome)).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        drop(tx);

        let mut slots: Vec<Option<Result<(ManifestEntry, String), LabError>>> =
            (0..experiments.len()).map(|_| None).collect();
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }

        let mut completed = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let name = experiments[i].name();
            let outcome =
                slot.ok_or_else(|| LabError::Experiment(format!("{name}: worker vanished")))?;
            completed.push(outcome?);
        }
        completed.sort_by(|(a, _), (b, _)| a.name.cmp(&b.name));

        let (entries, reports): (Vec<ManifestEntry>, Vec<String>) = completed.into_iter().unzip();
        let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();

        let manifest = Manifest {
            schema: 2,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            threads: workers,
            total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
            experiments: entries,
        };
        let manifest_path = self.results_dir.join("manifest.json");
        let merged = Manifest {
            experiments: merge_entries(previous_entries(&manifest_path), &manifest.experiments),
            ..manifest.clone()
        };
        let manifest_json =
            serde_json::to_string_pretty(&merged).map_err(|e| LabError::Parse(e.to_string()))?;
        fs::write(manifest_path, manifest_json)?;

        Ok(RunSummary {
            manifest,
            reports: names.into_iter().zip(reports).collect(),
        })
    }

    /// Runs one experiment: cache replay when possible, fresh compute
    /// otherwise. Returns the manifest entry plus the text report. Each
    /// stage is timed into the entry's `stages` for `lab profile`.
    fn execute(&self, exp: &dyn Experiment) -> Result<(ManifestEntry, String), LabError> {
        let digest = exp.config_digest();
        let started = Instant::now();
        let mut spans = diskobs::SpanSet::new();
        let cache_path = self
            .cache_dir
            .join(format!("{}-{digest}.json", exp.name()));

        if self.use_cache && cache_path.exists() {
            // A corrupt or stale cache file is not fatal — recompute.
            if let Ok(output) = spans.time("cache_probe", || read_cached(&cache_path)) {
                let outputs = spans.time("write_outputs", || {
                    self.write_outputs(exp.name(), &output)
                })?;
                let entry = ManifestEntry {
                    name: exp.name().to_string(),
                    digest,
                    cache: "hit".to_string(),
                    wall_ms: started.elapsed().as_secs_f64() * 1e3,
                    stages: spans.into_spans(),
                    outputs,
                };
                return Ok((entry, output.text));
            }
        }

        let output = spans.time("compute", || exp.run())?;
        let outputs = spans.time("write_outputs", || self.write_outputs(exp.name(), &output))?;
        if self.use_cache {
            spans.time("cache_store", || {
                fs::write(&cache_path, render_cached(exp.name(), &digest, &output))
            })?;
        }
        let entry = ManifestEntry {
            name: exp.name().to_string(),
            digest,
            cache: "miss".to_string(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            stages: spans.into_spans(),
            outputs,
        };
        Ok((entry, output.text))
    }

    /// Writes `<stem>.json` per payload, each side file verbatim, and
    /// `<name>.txt`, returning the file names written.
    fn write_outputs(&self, name: &str, output: &RunOutput) -> Result<Vec<String>, LabError> {
        let mut written = Vec::new();
        for (stem, payload) in &output.json {
            let file = format!("{stem}.json");
            let pretty = serde_json::to_string_pretty(payload)
                .map_err(|e| LabError::Parse(e.to_string()))?;
            fs::write(self.results_dir.join(&file), pretty)?;
            written.push(file);
        }
        for (file, contents) in &output.files {
            fs::write(self.results_dir.join(file), contents)?;
            written.push(file.clone());
        }
        let text_file = format!("{name}.txt");
        fs::write(self.results_dir.join(&text_file), &output.text)?;
        written.push(text_file);
        Ok(written)
    }
}

/// The cache-file document for one computed experiment.
fn render_cached(name: &str, digest: &str, output: &RunOutput) -> String {
    let mut outputs = Map::new();
    for (stem, payload) in &output.json {
        outputs.insert(stem.clone(), payload.clone());
    }
    let mut files = Map::new();
    for (file, contents) in &output.files {
        files.insert(file.clone(), Value::String(contents.clone()));
    }
    let mut doc = Map::new();
    doc.insert("name", Value::String(name.to_string()));
    doc.insert("digest", Value::String(digest.to_string()));
    doc.insert("text", Value::String(output.text.clone()));
    doc.insert("outputs", Value::Object(outputs));
    doc.insert("files", Value::Object(files));
    serde_json::to_string_pretty(&Value::Object(doc)).unwrap_or_default()
}

/// Reads a cache file back into the output it recorded.
fn read_cached(path: &Path) -> Result<RunOutput, LabError> {
    let raw = fs::read_to_string(path)?;
    let doc: Value = serde_json::from_str(&raw).map_err(|e| LabError::Parse(e.to_string()))?;
    let text = doc
        .get("text")
        .and_then(Value::as_str)
        .ok_or_else(|| LabError::Parse("cache entry missing text".into()))?
        .to_string();
    let outputs = doc
        .get("outputs")
        .and_then(Value::as_object)
        .ok_or_else(|| LabError::Parse("cache entry missing outputs".into()))?;
    let json = outputs
        .iter()
        .map(|(stem, payload)| (stem.clone(), payload.clone()))
        .collect();
    // Cache documents written before side files existed have no
    // `files` key; treat them as having none.
    let files = doc
        .get("files")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(f, c)| Some((f.clone(), c.as_str()?.to_string())))
                .collect()
        })
        .unwrap_or_default();
    Ok(RunOutput { json, files, text })
}

/// The entries of the manifest already at `path`; none when it is
/// missing or unreadable (it is rewritten whole either way).
fn previous_entries(path: &Path) -> Vec<ManifestEntry> {
    fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Manifest>(&text).ok())
        .map(|m| m.experiments)
        .unwrap_or_default()
}

/// `previous` with every entry named in `ran` replaced by its new
/// record, in name order.
fn merge_entries(previous: Vec<ManifestEntry>, ran: &[ManifestEntry]) -> Vec<ManifestEntry> {
    let mut entries: Vec<ManifestEntry> = previous
        .into_iter()
        .filter(|old| ran.iter().all(|new| new.name != old.name))
        .chain(ran.iter().cloned())
        .collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::config_object;
    use serde::Serialize as _;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Counting {
        name: &'static str,
        id: u64,
        runs: Arc<AtomicUsize>,
    }

    impl Counting {
        fn boxed(id: u64) -> (Box<dyn Experiment>, Arc<AtomicUsize>) {
            Counting::named("counting", id)
        }

        fn named(name: &'static str, id: u64) -> (Box<dyn Experiment>, Arc<AtomicUsize>) {
            let runs = Arc::new(AtomicUsize::new(0));
            (Box::new(Counting { name, id, runs: runs.clone() }), runs)
        }
    }

    impl Experiment for Counting {
        fn name(&self) -> &'static str {
            self.name
        }
        fn config(&self) -> Value {
            config_object(vec![("id", self.id.to_value())])
        }
        fn run(&self) -> Result<RunOutput, LabError> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            Ok(RunOutput::single(
                "counting",
                vec![self.id, 2, 3].to_value(),
                format!("id {}\n", self.id),
            ))
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "disklab-engine-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_run_is_a_cache_hit_with_identical_bytes() {
        let dir = scratch("hit");
        let engine = Engine::at(&dir).threads(2);

        let (exp, runs) = Counting::boxed(9);
        let first = engine.run(vec![exp]).unwrap();
        assert_eq!(first.manifest.misses(), 1);
        let bytes1 = fs::read(dir.join("counting.json")).unwrap();

        let (exp, _) = Counting::boxed(9);
        let second = engine.run(vec![exp]).unwrap();
        assert_eq!(second.manifest.hits(), 1);
        assert_eq!(bytes1, fs::read(dir.join("counting.json")).unwrap());
        assert_eq!(runs.load(Ordering::SeqCst), 1, "hit must not recompute");
        assert_eq!(second.reports[0].1, "id 9\n");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabling_the_cache_recomputes() {
        let dir = scratch("nocache");
        let engine = Engine::at(&dir).use_cache(false);
        let (first, runs_a) = Counting::boxed(5);
        engine.run(vec![first]).unwrap();
        let (second, runs_b) = Counting::boxed(5);
        let mid = engine.run(vec![second]).unwrap();
        assert_eq!(mid.manifest.misses(), 1);
        assert_eq!(runs_a.load(Ordering::SeqCst) + runs_b.load(Ordering::SeqCst), 2);
        assert!(!dir.join(".cache").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_lands_next_to_results() {
        let dir = scratch("manifest");
        let engine = Engine::at(&dir);
        let (exp, _) = Counting::boxed(1);
        let summary = engine.run(vec![exp]).unwrap();
        assert!(dir.join("manifest.json").is_file());
        assert_eq!(summary.manifest.experiments[0].outputs, vec![
            "counting.json".to_string(),
            "counting.txt".to_string()
        ]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_partial_run_keeps_every_other_manifest_entry() {
        let dir = scratch("partial");
        let engine = Engine::at(&dir).use_cache(false);
        let names = ["alpha", "beta", "gamma"];
        let full = engine
            .run(names.iter().map(|n| Counting::named(n, 1).0).collect())
            .unwrap();
        let partial = engine.run(vec![Counting::named("beta", 2).0]).unwrap();
        assert_eq!(partial.manifest.experiments.len(), 1, "the summary covers this run");

        let text = fs::read_to_string(dir.join("manifest.json")).unwrap();
        let on_disk: Manifest = serde_json::from_str(&text).unwrap();
        let digests = |m: &Manifest| {
            m.experiments
                .iter()
                .map(|e| (e.name.clone(), e.digest.clone()))
                .collect::<Vec<_>>()
        };
        let mut expected = digests(&full.manifest);
        expected[1] = digests(&partial.manifest)[0].clone();
        assert_ne!(expected[1], digests(&full.manifest)[1], "beta's config changed");
        assert_eq!(digests(&on_disk), expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reexported_parallel_map_matches_serial() {
        // The primitive's own tests live in `disksim::par`; this pins
        // the `disklab::engine` re-export to the same behavior.
        let serial = parallel_map((0..32).collect::<Vec<i64>>(), 1, |x| x * 3);
        let threaded = parallel_map((0..32).collect::<Vec<i64>>(), 8, |x| x * 3);
        assert_eq!(serial, threaded);
    }
}
