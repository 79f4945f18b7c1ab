//! The benchmark's own reader of plan documents: status, and the
//! quality of a solved plan's volumes.
//!
//! Quality is measured, never gated. The ratio error of a mix input is
//! `abs(got - spec) / spec` with `got` the input's share of the mix's
//! planned volume, as `aqua_volume::round` defines it.

use aqua_compiler::{CompileOutput, VolumeResolution};
use aqua_rational::Ratio;
use aqua_volume::ManagedOutcome;

/// Quality of one solved plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quality {
    /// Largest relative mix-ratio error over all mix in-edges.
    pub max_err: f64,
    /// Mix in-edges whose error exceeds 2%.
    pub over_2pct: u64,
    /// Nodes whose out-edges take more than their in-edges deliver.
    pub overdrawn: u64,
    /// Nodes whose planned volume exceeds the machine's capacity.
    pub over_capacity: u64,
}

/// What a plan document says.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanInfo {
    /// `status`, with `/method` appended for solved plans.
    pub status: String,
    /// Present for solved plans.
    pub quality: Option<Quality>,
}

impl PlanInfo {
    /// Solved or partitioned: the plan can run as compiled.
    pub fn usable(&self) -> bool {
        self.status.starts_with("solved") || self.status == "partitioned"
    }
}

/// One plan edge: source, destination, specified fraction, volume (nl).
type Edge = (usize, usize, Ratio, Ratio);

/// Reads a plan document.
///
/// # Errors
///
/// A message naming what is malformed.
pub fn read(plan: &str, capacity_nl: Ratio) -> Result<PlanInfo, String> {
    let status = status_of(plan).ok_or("plan has no status")?;
    if status != "solved" {
        return Ok(PlanInfo {
            status: status.to_owned(),
            quality: None,
        });
    }
    let v = Json::parse(plan)?;
    let method = v
        .get("method")
        .and_then(Json::str)
        .ok_or("solved plan has no method")?;
    let nodes = v
        .get("nodes")
        .and_then(Json::arr)
        .ok_or("solved plan has no nodes")?;
    let is_mix: Vec<bool> = nodes
        .iter()
        .map(|n| n.str().is_some_and(|k| k.starts_with("mix")))
        .collect();
    let raw_edges = v
        .get("edges")
        .and_then(Json::arr)
        .ok_or("solved plan has no edges")?;
    let mut edges = Vec::with_capacity(raw_edges.len());
    for e in raw_edges {
        let f = e.arr().ok_or("edge is not an array")?;
        let (Some(src), Some(dst), Some(frac), Some(vol)) = (
            f.first().and_then(Json::index),
            f.get(1).and_then(Json::index),
            f.get(2).and_then(Json::str),
            f.get(3).and_then(Json::str),
        ) else {
            return Err("edge is not [src,dst,fraction,volume]".into());
        };
        if src >= is_mix.len() || dst >= is_mix.len() {
            return Err("edge names a node the plan does not have".into());
        }
        edges.push((src, dst, ratio(frac)?, ratio(vol)?));
    }
    let node_vols = v
        .get("node_volumes_nl")
        .and_then(Json::arr)
        .ok_or("solved plan has no node_volumes_nl")?
        .iter()
        .map(|x| {
            x.str()
                .ok_or_else(|| "volume is not a string".to_owned())
                .and_then(ratio)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PlanInfo {
        status: format!("solved/{method}"),
        quality: Some(quality(&is_mix, &edges, &node_vols, capacity_nl)),
    })
}

/// The `status` member, which plans render first.
fn status_of(plan: &str) -> Option<&str> {
    let rest = plan.strip_prefix("{\"status\":\"")?;
    rest.get(..rest.find('"')?)
}

/// A JSON value, as much of one as plan documents use.
enum Json<'a> {
    Str(&'a str),
    Num(&'a str),
    Arr(Vec<Json<'a>>),
    Obj(Vec<(&'a str, Json<'a>)>),
    Other,
}

impl<'a> Json<'a> {
    /// Parses a whole document in one linear pass. Strings are kept
    /// raw (escapes are skipped, not decoded): plan names, kinds and
    /// rationals never contain any.
    fn parse(src: &'a str) -> Result<Json<'a>, String> {
        let mut pos = 0;
        let v = Json::value(src.as_bytes(), src, &mut pos)?;
        Json::ws(src.as_bytes(), &mut pos);
        if pos != src.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], pos: &mut usize) {
        while b.get(*pos).is_some_and(u8::is_ascii_whitespace) {
            *pos += 1;
        }
    }

    fn value(b: &[u8], src: &'a str, pos: &mut usize) -> Result<Json<'a>, String> {
        Json::ws(b, pos);
        let start = *pos;
        match b.get(start) {
            Some(b'"') => {
                *pos += 1;
                while let Some(&c) = b.get(*pos) {
                    match c {
                        b'"' => {
                            *pos += 1;
                            return Ok(Json::Str(&src[start + 1..*pos - 1]));
                        }
                        b'\\' => *pos += 2,
                        _ => *pos += 1,
                    }
                }
                Err("unterminated string".into())
            }
            Some(&open @ (b'[' | b'{')) => {
                *pos += 1;
                let close = if open == b'[' { b']' } else { b'}' };
                let (mut items, mut members) = (Vec::new(), Vec::new());
                Json::ws(b, pos);
                if b.get(*pos) == Some(&close) {
                    *pos += 1;
                } else {
                    loop {
                        if open == b'{' {
                            let Json::Str(key) = Json::value(b, src, pos)? else {
                                return Err(format!("object key expected at {pos}"));
                            };
                            Json::ws(b, pos);
                            if b.get(*pos) != Some(&b':') {
                                return Err(format!("`:` expected at {pos}"));
                            }
                            *pos += 1;
                            members.push((key, Json::value(b, src, pos)?));
                        } else {
                            items.push(Json::value(b, src, pos)?);
                        }
                        Json::ws(b, pos);
                        match b.get(*pos) {
                            Some(b',') => *pos += 1,
                            Some(&c) if c == close => {
                                *pos += 1;
                                break;
                            }
                            _ => return Err(format!("`,` or close expected at {pos}")),
                        }
                    }
                }
                Ok(if open == b'[' {
                    Json::Arr(items)
                } else {
                    Json::Obj(members)
                })
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                while b
                    .get(*pos)
                    .is_some_and(|c| c.is_ascii_digit() || b"-+.eE".contains(c))
                {
                    *pos += 1;
                }
                Ok(Json::Num(&src[start..*pos]))
            }
            Some(_) => {
                for word in ["true", "false", "null"] {
                    if src[start..].starts_with(word) {
                        *pos += word.len();
                        return Ok(Json::Other);
                    }
                }
                Err(format!("unexpected byte at {start}"))
            }
            None => Err("unexpected end of document".into()),
        }
    }

    fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&'a str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn index(&self) -> Option<usize> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }
}

/// Reads the plan of a compiled program (the same measure as [`read`],
/// taken from the compiler's output instead of a plan document).
pub fn of_compiled(out: &CompileOutput, capacity_nl: Ratio) -> PlanInfo {
    match &out.resolution {
        VolumeResolution::Static(ManagedOutcome::Solved { dag, volumes, .. }) => {
            let is_mix = dag
                .node_ids()
                .map(|n| matches!(dag.node(n).kind, aqua_dag::NodeKind::Mix { .. }))
                .collect::<Vec<_>>();
            let edges: Vec<Edge> = dag
                .edge_ids()
                .filter(|&e| dag.edge_is_live(e))
                .map(|e| {
                    let edge = dag.edge(e);
                    (
                        edge.src.index(),
                        edge.dst.index(),
                        edge.fraction,
                        volumes.edge_volumes_nl[e.index()],
                    )
                })
                .collect();
            PlanInfo {
                status: format!("solved/{}", volumes.method),
                quality: Some(quality(
                    &is_mix,
                    &edges,
                    &volumes.node_volumes_nl,
                    capacity_nl,
                )),
            }
        }
        VolumeResolution::Static(ManagedOutcome::NeedsRegeneration { .. }) => PlanInfo {
            status: "needs_regeneration".into(),
            quality: None,
        },
        VolumeResolution::Static(ManagedOutcome::ResourcesExceeded { .. }) => PlanInfo {
            status: "resources_exceeded".into(),
            quality: None,
        },
        VolumeResolution::Partitioned(_) => PlanInfo {
            status: "partitioned".into(),
            quality: None,
        },
        VolumeResolution::None => PlanInfo {
            status: "unmanaged".into(),
            quality: None,
        },
    }
}

fn ratio(s: &str) -> Result<Ratio, String> {
    s.parse::<Ratio>()
        .map_err(|e| format!("bad rational `{s}`: {e}"))
}

/// Sums exactly, falling back to `None` on overflow.
fn sum(values: impl Iterator<Item = Ratio>) -> Option<Ratio> {
    Ratio::checked_sum(values).ok()
}

fn quality(is_mix: &[bool], edges: &[Edge], node_vols: &[Ratio], capacity_nl: Ratio) -> Quality {
    let n = is_mix.len();
    let mut ins: Vec<Vec<&Edge>> = vec![Vec::new(); n];
    let mut outs: Vec<Vec<&Edge>> = vec![Vec::new(); n];
    for e in edges {
        outs[e.0].push(e);
        ins[e.1].push(e);
    }
    let mut q = Quality::default();
    for node in 0..n {
        let produced = sum(ins[node].iter().map(|e| e.3));
        if is_mix[node] {
            if let Some(total) = produced.filter(|t| t.is_positive()) {
                for e in &ins[node] {
                    let exact =
                        e.3.checked_div(total)
                            .and_then(|got| got.checked_sub(e.2))
                            .and_then(|d| d.abs().checked_div(e.2));
                    let err = match exact {
                        Ok(err) => err.to_f64(),
                        Err(_) => {
                            let spec = e.2.to_f64();
                            ((e.3.to_f64() / total.to_f64()) - spec).abs() / spec
                        }
                    };
                    q.max_err = q.max_err.max(err);
                    if err > 0.02 {
                        q.over_2pct += 1;
                    }
                }
            }
        }
        if !ins[node].is_empty() {
            let used = sum(outs[node].iter().map(|e| e.3));
            if let (Some(produced), Some(used)) = (produced, used) {
                if used > produced {
                    q.overdrawn += 1;
                }
            }
        }
        if node_vols.get(node).is_some_and(|v| *v > capacity_nl) {
            q.over_capacity += 1;
        }
    }
    q
}
