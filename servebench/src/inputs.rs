//! Input preparation (never timed): the dataset, the `.mmkg` registry
//! snapshot the stack boots from (graph, modality flags, relation
//! frequencies, the untrained model's weights and the manifest, in the
//! layout `mmkgr snapshot` writes), the query pool and the mutations.
//! The program's own snapshot writer only takes models it trains, so the
//! sections are written here through the public `SnapshotWriter`. The graphs are the repository's named synthetic datasets
//! and the untrained weights come from one fixed seed, so both are the
//! same on every run; `--seed` picks which queries are asked, which
//! triples are written and when. (An untrained policy's weights decide
//! where its beam walks, so a per-seed model would change the work per
//! query by tens of percent from seed to seed.)

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use mmkgr_core::serve::ServeConfig;
use mmkgr_core::{MmkgrConfig, MmkgrModel};
use mmkgr_datagen::{generate, generate_scale, GenConfig, ScaleConfig};
use mmkgr_embed::TransE;
use mmkgr_eval::relation_frequencies;
use mmkgr_eval::snapshot::{ModelEntry, RegistryManifest, REGISTRY_KIND};
use mmkgr_kg::store::SectionKind;
use mmkgr_kg::{EntityId, ModalPresence, MultiModalKG, RelationId, SnapshotWriter, Triple};

use crate::util::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// `GenConfig::fb_img_txt()`: 11,757 entities, 1,231 relations, with
    /// image and text features.
    Fb,
    /// `ScaleConfig::million()`: 10^6 entities, structure only.
    Million,
}

/// TransE width for the scale tier (what `bench_store` uses).
pub const TRANSE_DIM: usize = 16;
/// Seed of every untrained model's weights and of the hot set.
const MODEL_SEED: u64 = 17;
/// Distinct pairs a hot mix asks for: far below the frontier-cache
/// capacity.
pub const HOT_SET: usize = 64;

pub struct Inputs {
    pub snapshot: PathBuf,
    pub snapshot_bytes: u64,
    pub entities: usize,
    /// Distinct `(source, relation)` pairs of the test split, shuffled.
    pub pairs: Vec<(u32, u32)>,
    /// `HOT_SET` of those pairs, the same on every seed: a hot mix asks
    /// for the same work whatever the seed, which only picks the order.
    pub hot: Vec<(u32, u32)>,
    /// Distinct triples absent from the graph, in the order they are
    /// written.
    pub inserts: Vec<Triple>,
    /// The untrained MMKGR policy written into the snapshot (MMKGR tier
    /// only), for the probes that run the beam engine outside the server.
    pub model: Option<MmkgrModel>,
}

pub struct Smoke(pub bool);

/// Prepare everything a run needs under `dir`.
pub fn prepare(
    tier: Tier,
    seed: u64,
    smoke: Smoke,
    serve: ServeConfig,
    dir: &Path,
    inserts: usize,
) -> Result<Inputs, String> {
    let rng = Rng::new(seed);
    let kg: MultiModalKG = match tier {
        Tier::Fb if smoke.0 => generate(&GenConfig::fb_img_txt().scaled(0.05)),
        Tier::Fb => generate(&GenConfig::fb_img_txt()),
        Tier::Million if smoke.0 => generate_scale(&ScaleConfig::million().with_entities(20_000)),
        Tier::Million => generate_scale(&ScaleConfig::million()),
    };
    let n = kg.num_entities();
    let rs = kg.graph.relations();

    let snapshot = dir.join("input.mmkg");
    let mut w = SnapshotWriter::create(&snapshot).map_err(|e| e.to_string())?;
    w.add_graph(&kg.graph).map_err(|e| e.to_string())?;
    if kg.modal.num_entities() > 0 {
        let presence = ModalPresence::from_bank(&kg.modal);
        let (img, txt) = presence.flags();
        let bytes: Vec<u8> = img.iter().chain(txt).map(|&b| b as u8).collect();
        w.add_bytes(SectionKind::ModalPresence, img.len() as u64, &bytes)
            .map_err(|e| e.to_string())?;
    }
    let mut freqs: Vec<(u32, u64)> = relation_frequencies(&kg.split.train)
        .into_iter()
        .map(|(r, c)| (r.0, c as u64))
        .collect();
    freqs.sort_unstable();
    let freq_bytes: Vec<u8> = freqs
        .iter()
        .flat_map(|&(r, c)| (r as u64).to_ne_bytes().into_iter().chain(c.to_ne_bytes()))
        .collect();
    w.add_bytes(SectionKind::RelationFreqs, freqs.len() as u64, &freq_bytes)
        .map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let mut model = None;
    if tier == Tier::Fb {
        let cfg = MmkgrConfig {
            seed: MODEL_SEED,
            ..MmkgrConfig::quick()
        };
        let m = MmkgrModel::new(&kg, cfg, None);
        let section = w
            .add_blob(m.to_json().as_bytes())
            .map_err(|e| e.to_string())?;
        entries.push(ModelEntry {
            name: "MMKGR".into(),
            family: "mmkgr".into(),
            model: String::new(),
            dim: 0,
            seed: 0,
            img: Vec::new(),
            section,
        });
        model = Some(m);
    } else {
        let transe = TransE::new(n, rs.total(), TRANSE_DIM, MODEL_SEED);
        let mut flat = Vec::with_capacity(transe.params.num_scalars());
        for (_, _, m) in transe.params.iter() {
            flat.extend_from_slice(m.as_slice());
        }
        let section = w.add_f32(&flat, 1, flat.len()).map_err(|e| e.to_string())?;
        entries.push(ModelEntry {
            name: "TransE".into(),
            family: "kge".into(),
            model: "TransE".into(),
            dim: TRANSE_DIM,
            seed: MODEL_SEED,
            img: Vec::new(),
            section,
        });
    }
    let manifest = RegistryManifest {
        kind: REGISTRY_KIND.into(),
        default_model: entries.first().map(|e| e.name.clone()).unwrap_or_default(),
        serve,
        models: entries,
        wal_seq: 0,
    };
    let json = serde_json::to_string(&manifest).map_err(|e| e.to_string())?;
    w.add_manifest(&json).map_err(|e| e.to_string())?;
    w.finish().map_err(|e| e.to_string())?;
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();

    let mut seen = HashSet::new();
    let mut pairs: Vec<(u32, u32)> = kg
        .split
        .test
        .iter()
        .map(|t| (t.s.0, t.r.0))
        .filter(|p| seen.insert(*p))
        .collect();
    let mut hot = pairs.clone();
    Rng::new(MODEL_SEED).shuffle(&mut hot);
    hot.truncate(HOT_SET);
    rng.fork(1).shuffle(&mut pairs);

    let mut pick = rng.fork(2);
    let mut seen = HashSet::new();
    let mut writes = Vec::with_capacity(inserts);
    while writes.len() < inserts {
        let t = Triple {
            s: EntityId(pick.below(n) as u32),
            r: RelationId(pick.below(rs.base()) as u32),
            o: EntityId(pick.below(n) as u32),
        };
        if t.s != t.o && !kg.graph.has_edge(t.s, t.r, t.o) && seen.insert((t.s.0, t.r.0, t.o.0)) {
            writes.push(t);
        }
    }
    Ok(Inputs {
        snapshot,
        snapshot_bytes,
        entities: n,
        pairs,
        hot,
        inserts: writes,
        model,
    })
}
