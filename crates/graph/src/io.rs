//! Graph readers and writers.
//!
//! Two formats are supported:
//!
//! * **Edge list** — one `src dst [weight]` triple per line, `#`/`%`
//!   comments, 0-indexed. This is the SNAP distribution format.
//! * **Matrix Market coordinate** — the SuiteSparse distribution format the
//!   paper used to obtain its real-world graphs (`%%MatrixMarket matrix
//!   coordinate ...`), 1-indexed, with `pattern`/`integer`/`real` fields and
//!   `general`/`symmetric` symmetry.
//!
//! Both readers are strict about structure but tolerant of blank lines.

use crate::{add_edge_weight, Graph, Vertex, Weight, MAX_TOTAL_EDGE_WEIGHT};
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Error type for graph parsing.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or syntactic problem.
    Malformed {
        /// 1-based line number, where known.
        line: usize,
        /// What is wrong with the input.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line, reason } => {
                write!(f, "malformed input at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn malformed(line: usize, reason: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line,
        reason: reason.into(),
    }
}

/// The running total edge weight after line `line_no` adds `w`, or the
/// error naming that line once the total passes [`MAX_TOTAL_EDGE_WEIGHT`].
fn add_line_weight(total: Weight, w: Weight, line_no: usize) -> Result<Weight, ParseError> {
    add_edge_weight(total, w).ok_or_else(|| {
        malformed(
            line_no,
            format!("total edge weight passes the limit {MAX_TOTAL_EDGE_WEIGHT}"),
        )
    })
}

/// Parses a 0-indexed edge list (`src dst [weight]` per line). The vertex
/// count is `1 + max endpoint` unless `min_vertices` demands more. The
/// weights may sum to at most [`MAX_TOTAL_EDGE_WEIGHT`].
pub fn parse_edge_list(text: &str, min_vertices: usize) -> Result<Graph, ParseError> {
    let mut edges: Vec<(Vertex, Vertex, Weight)> = Vec::new();
    let mut max_v = 0usize;
    let mut total: Weight = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let src: Vertex = it
            .next()
            .ok_or_else(|| malformed(line_no, "missing src"))?
            .parse()
            .map_err(|e| malformed(line_no, format!("bad src: {e}")))?;
        let dst: Vertex = it
            .next()
            .ok_or_else(|| malformed(line_no, "missing dst"))?
            .parse()
            .map_err(|e| malformed(line_no, format!("bad dst: {e}")))?;
        let w: Weight = match it.next() {
            Some(tok) => tok
                .parse()
                .map_err(|e| malformed(line_no, format!("bad weight: {e}")))?,
            None => 1,
        };
        if it.next().is_some() {
            return Err(malformed(line_no, "trailing tokens"));
        }
        if w <= 0 {
            return Err(malformed(line_no, "non-positive weight"));
        }
        total = add_line_weight(total, w, line_no)?;
        max_v = max_v.max(src as usize + 1).max(dst as usize + 1);
        edges.push((src, dst, w));
    }
    Ok(Graph::from_edges(max_v.max(min_vertices), edges))
}

/// Serializes a graph as a 0-indexed weighted edge list.
pub fn write_edge_list(graph: &Graph) -> String {
    let mut out = String::with_capacity(graph.num_arcs() * 12);
    out.push_str(&format!(
        "# edist edge list: {} vertices, {} arcs\n",
        graph.num_vertices(),
        graph.num_arcs()
    ));
    for (s, d, w) in graph.arcs() {
        out.push_str(&format!("{s} {d} {w}\n"));
    }
    out
}

/// Parses a Matrix Market coordinate file into a directed graph.
///
/// * `pattern` entries get weight 1; `integer`/`real` weights are rounded to
///   the nearest positive integer (entries rounding to `<= 0` are rejected).
/// * `symmetric` / `skew-symmetric` inputs mirror each off-diagonal entry.
/// * Indices are converted from 1-based to 0-based.
/// * The weights, mirrored entries included, may sum to at most
///   [`MAX_TOTAL_EDGE_WEIGHT`]; the error names the line that crosses it.
pub fn parse_matrix_market(text: &str) -> Result<Graph, ParseError> {
    let mut lines = text.lines().enumerate();

    let (_, header) = lines.next().ok_or_else(|| malformed(1, "empty input"))?;
    let header_fields: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if header_fields.len() < 5
        || header_fields[0] != "%%matrixmarket"
        || header_fields[1] != "matrix"
        || header_fields[2] != "coordinate"
    {
        return Err(malformed(
            1,
            "expected '%%MatrixMarket matrix coordinate <field> <symmetry>'",
        ));
    }
    let field = header_fields[3].as_str();
    if !matches!(field, "pattern" | "integer" | "real") {
        return Err(malformed(1, format!("unsupported field '{field}'")));
    }
    let symmetry = header_fields[4].as_str();
    let mirror = match symmetry {
        "general" => false,
        "symmetric" | "skew-symmetric" => true,
        other => return Err(malformed(1, format!("unsupported symmetry '{other}'"))),
    };

    // Size line: first non-comment, non-blank line.
    let mut size_line = None;
    for (idx, raw) in lines.by_ref() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        size_line = Some((idx + 1, line.to_string()));
        break;
    }
    let (size_no, size_line) = size_line.ok_or_else(|| malformed(1, "missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| malformed(size_no, format!("bad size line: {e}")))?;
    if dims.len() != 3 {
        return Err(malformed(size_no, "size line must be 'rows cols nnz'"));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    if rows != cols {
        return Err(malformed(size_no, "adjacency matrix must be square"));
    }

    let mut edges: Vec<(Vertex, Vertex, Weight)> =
        Vec::with_capacity(nnz * if mirror { 2 } else { 1 });
    let mut seen = 0usize;
    let mut total: Weight = 0;
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| malformed(line_no, "missing row"))?
            .parse()
            .map_err(|e| malformed(line_no, format!("bad row: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| malformed(line_no, "missing col"))?
            .parse()
            .map_err(|e| malformed(line_no, format!("bad col: {e}")))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(malformed(line_no, "index out of bounds (1-based expected)"));
        }
        let w: Weight = match field {
            "pattern" => 1,
            _ => {
                let tok = it
                    .next()
                    .ok_or_else(|| malformed(line_no, "missing value"))?;
                let val: f64 = tok
                    .parse()
                    .map_err(|e| malformed(line_no, format!("bad value: {e}")))?;
                let rounded = val.abs().round() as Weight;
                if rounded <= 0 {
                    return Err(malformed(line_no, "entry rounds to non-positive weight"));
                }
                rounded
            }
        };
        let (src, dst) = ((r - 1) as Vertex, (c - 1) as Vertex);
        total = add_line_weight(total, w, line_no)?;
        edges.push((src, dst, w));
        if mirror && src != dst {
            total = add_line_weight(total, w, line_no)?;
            edges.push((dst, src, w));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(malformed(
            0,
            format!("size line promised {nnz} entries, found {seen}"),
        ));
    }
    Ok(Graph::from_edges(rows, edges))
}

/// Serializes a graph as `%%MatrixMarket matrix coordinate integer general`.
pub fn write_matrix_market(graph: &Graph) -> String {
    let mut out = String::with_capacity(graph.num_arcs() * 12 + 64);
    out.push_str("%%MatrixMarket matrix coordinate integer general\n");
    out.push_str(&format!(
        "{} {} {}\n",
        graph.num_vertices(),
        graph.num_vertices(),
        graph.num_arcs()
    ));
    for (s, d, w) in graph.arcs() {
        out.push_str(&format!("{} {} {}\n", s + 1, d + 1, w));
    }
    out
}

/// Loads a graph from a file, choosing the parser by extension: `.mtx` uses
/// Matrix Market, everything else the edge-list reader.
pub fn load_graph(path: &Path) -> Result<Graph, ParseError> {
    let text = fs::read_to_string(path)?;
    if path.extension().is_some_and(|e| e == "mtx") {
        parse_matrix_market(&text)
    } else {
        parse_edge_list(&text, 0)
    }
}

/// Saves a graph to a file, choosing the writer by extension as in
/// [`load_graph`].
pub fn save_graph(graph: &Graph, path: &Path) -> io::Result<()> {
    let text = if path.extension().is_some_and(|e| e == "mtx") {
        write_matrix_market(graph)
    } else {
        write_edge_list(graph)
    };
    let mut f = fs::File::create(path)?;
    f.write_all(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip() {
        let g = Graph::from_edges(4, vec![(0, 1, 2), (2, 3, 1), (3, 0, 5)]);
        let text = write_edge_list(&g);
        let g2 = parse_edge_list(&text, 0).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_default_weight_and_comments() {
        let text = "# comment\n0 1\n\n% other comment\n1 2 3\n";
        let g = parse_edge_list(text, 0).unwrap();
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 1)]);
        assert_eq!(g.out_edges(1).collect::<Vec<_>>(), [(2, 3)]);
    }

    #[test]
    fn edge_list_min_vertices() {
        let g = parse_edge_list("0 1\n", 10).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(parse_edge_list("0\n", 0).is_err());
        assert!(parse_edge_list("0 x\n", 0).is_err());
        assert!(parse_edge_list("0 1 2 3\n", 0).is_err());
        assert!(parse_edge_list("0 1 0\n", 0).is_err());
    }

    #[test]
    fn matrix_market_roundtrip() {
        let g = Graph::from_edges(3, vec![(0, 1, 1), (1, 2, 4), (2, 2, 2)]);
        let text = write_matrix_market(&g);
        let g2 = parse_matrix_market(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn matrix_market_pattern_symmetric() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a comment\n\
                    3 3 2\n\
                    2 1\n\
                    3 3\n";
        let g = parse_matrix_market(text).unwrap();
        // (2,1) mirrors to (1,2); diagonal (3,3) does not mirror.
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 1)]);
        assert_eq!(g.out_edges(1).collect::<Vec<_>>(), [(0, 1)]);
        assert_eq!(g.out_edges(2).collect::<Vec<_>>(), [(2, 1)]);
    }

    #[test]
    fn matrix_market_real_values_round() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 2.6\n";
        let g = parse_matrix_market(text).unwrap();
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), [(1, 3)]);
    }

    #[test]
    fn matrix_market_rejects_bad_header() {
        assert!(parse_matrix_market("%%MatrixMarket matrix array real general\n").is_err());
        assert!(parse_matrix_market("garbage\n").is_err());
    }

    #[test]
    fn matrix_market_rejects_nnz_mismatch() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n";
        assert!(parse_matrix_market(text).is_err());
    }

    #[test]
    fn matrix_market_rejects_rectangular() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n";
        assert!(parse_matrix_market(text).is_err());
    }

    #[test]
    fn matrix_market_rejects_zero_index() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n";
        assert!(parse_matrix_market(text).is_err());
    }

    #[test]
    fn edge_list_rejects_a_total_weight_past_the_limit() {
        let text = format!("0 1 {}\n1 0 1\n", u32::MAX);
        match parse_edge_list(&text, 0) {
            Err(ParseError::Malformed { line: 2, reason }) => {
                assert!(reason.contains("total edge weight"), "{reason}")
            }
            other => panic!("expected a malformed line 2, got {other:?}"),
        }
    }

    #[test]
    fn matrix_market_counts_mirrored_weight_toward_the_limit() {
        let half = MAX_TOTAL_EDGE_WEIGHT / 2 + 1;
        let text =
            format!("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 {half}\n");
        assert!(matches!(
            parse_matrix_market(&text),
            Err(ParseError::Malformed { line: 3, .. })
        ));
        // A diagonal entry does not mirror: `E = half` is fine.
        let text =
            format!("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 2 {half}\n");
        assert_eq!(
            parse_matrix_market(&text).unwrap().total_edge_weight(),
            half
        );
    }

    #[test]
    fn file_roundtrip_by_extension() {
        let dir = std::env::temp_dir();
        let g = Graph::from_edges(3, vec![(0, 1, 1), (1, 2, 2)]);
        for name in ["edist_io_test.mtx", "edist_io_test.txt"] {
            let path = dir.join(name);
            save_graph(&g, &path).unwrap();
            let g2 = load_graph(&path).unwrap();
            assert_eq!(g, g2, "roundtrip via {name}");
            let _ = std::fs::remove_file(&path);
        }
    }
}
