//! MPS format reader and writer.
//!
//! Supports the classic fixed-ish MPS dialect used by the NETLIB LP
//! collection (whitespace-separated fields): `NAME`, `ROWS` (`N`/`L`/`G`/
//! `E`), `COLUMNS`, `RHS`, `RANGES`, `BOUNDS` (`UP`, `LO`, `FX`, `FR`, `MI`,
//! `PL`, `BV` rejected), `ENDATA`. The objective row is the first `N` row.
//! The writer emits a canonical form the reader round-trips.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::model::{LinearProgram, Rel, Sense, VarId};

/// Errors produced by the MPS reader.
#[derive(Debug, Clone, PartialEq)]
pub enum MpsError {
    /// A line outside any recognized section.
    UnexpectedLine(usize, String),
    /// A malformed field.
    Parse(usize, String),
    /// Reference to an undeclared row or column.
    Unknown(usize, String),
    /// Missing objective (`N`) row.
    NoObjective,
    /// Unsupported feature (e.g. integer markers).
    Unsupported(usize, String),
}

impl std::fmt::Display for MpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsError::UnexpectedLine(n, l) => write!(f, "line {n}: unexpected: {l}"),
            MpsError::Parse(n, l) => write!(f, "line {n}: cannot parse: {l}"),
            MpsError::Unknown(n, l) => write!(f, "line {n}: unknown name: {l}"),
            MpsError::NoObjective => write!(f, "no objective (N) row"),
            MpsError::Unsupported(n, l) => write!(f, "line {n}: unsupported: {l}"),
        }
    }
}

impl std::error::Error for MpsError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Rows,
    Columns,
    Rhs,
    Ranges,
    Bounds,
}

/// A declared row. Rows are numbered in declaration order; a redeclared
/// name keeps its number and takes the new declaration.
struct RowDecl {
    rel: Option<Rel>, // None = objective or free row
    rhs: f64,
    range: Option<f64>,
}

/// A column in order of first appearance: its objective coefficient and its
/// `(row number, value)` entries in the order they were read.
struct ColumnDecl<'a> {
    name: &'a str,
    obj: f64,
    entries: Vec<(usize, f64)>,
}

/// Parse an MPS document into a [`LinearProgram`] (minimization by MPS
/// convention).
///
/// Names are resolved to row and column numbers once, as `&str` keys
/// borrowed from `text`, so reading a coefficient allocates nothing beyond
/// its slot in its column's entry list. Each row's coefficients come out in
/// column first-appearance order, and within a column in reading order.
pub fn parse(text: &str) -> Result<LinearProgram, MpsError> {
    let mut name = "mps";
    let mut section = Section::None;
    let mut row_ids: HashMap<&str, usize> = HashMap::new();
    let mut row_names: Vec<&str> = Vec::new();
    let mut rows: Vec<RowDecl> = Vec::new();
    let mut row_order: Vec<usize> = Vec::new();
    let mut obj_row: Option<usize> = None;
    let mut col_ids: HashMap<&str, usize> = HashMap::new();
    let mut cols: Vec<ColumnDecl> = Vec::new();
    let mut bounds: HashMap<&str, (f64, f64)> = HashMap::new();
    let mut fields: Vec<&str> = Vec::new();

    for (ln, raw) in text.lines().enumerate() {
        let lineno = ln + 1;
        fields.clear();
        fields.extend(raw.split_whitespace());
        if fields.is_empty() || raw.starts_with('*') {
            continue;
        }
        let is_header = !raw.starts_with(' ') && !raw.starts_with('\t');
        if is_header {
            match fields[0].to_ascii_uppercase().as_str() {
                "NAME" => {
                    if fields.len() > 1 {
                        name = fields[1];
                    }
                }
                "ROWS" => section = Section::Rows,
                "COLUMNS" => section = Section::Columns,
                "RHS" => section = Section::Rhs,
                "RANGES" => section = Section::Ranges,
                "BOUNDS" => section = Section::Bounds,
                "ENDATA" => break,
                "OBJSENSE" | "OBJSENSE:" => {
                    return Err(MpsError::Unsupported(lineno, "OBJSENSE".into()))
                }
                other => return Err(MpsError::UnexpectedLine(lineno, other.to_string())),
            }
            continue;
        }
        // The `(row, value)` pair at fields `k`, `k + 1`, resolved: the
        // value's text is checked before the row's name.
        let row_value = |k: usize| -> Result<(usize, f64), MpsError> {
            let val: f64 = fields[k + 1]
                .parse()
                .map_err(|_| MpsError::Parse(lineno, fields[k + 1].to_string()))?;
            let row = *row_ids
                .get(fields[k])
                .ok_or_else(|| MpsError::Unknown(lineno, fields[k].to_string()))?;
            Ok((row, val))
        };
        match section {
            Section::None => return Err(MpsError::UnexpectedLine(lineno, raw.to_string())),
            Section::Rows => {
                if fields.len() < 2 {
                    return Err(MpsError::Parse(lineno, raw.to_string()));
                }
                let rel = match fields[0].to_ascii_uppercase().as_str() {
                    "N" => None,
                    "L" => Some(Rel::Le),
                    "G" => Some(Rel::Ge),
                    "E" => Some(Rel::Eq),
                    other => return Err(MpsError::Parse(lineno, other.to_string())),
                };
                let decl = RowDecl {
                    rel,
                    rhs: 0.0,
                    range: None,
                };
                let id = *row_ids.entry(fields[1]).or_insert(rows.len());
                if id == rows.len() {
                    row_names.push(fields[1]);
                    rows.push(decl);
                } else {
                    rows[id] = decl;
                }
                if rel.is_none() && obj_row.is_none() {
                    obj_row = Some(id);
                }
                // Extra N rows are ignored (free rows), NETLIB-style.
                if rel.is_some() {
                    row_order.push(id);
                }
            }
            Section::Columns => {
                if fields.iter().any(|f| f.eq_ignore_ascii_case("'MARKER'")) {
                    return Err(MpsError::Unsupported(lineno, "integer markers".into()));
                }
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(MpsError::Parse(lineno, raw.to_string()));
                }
                // Consecutive lines usually continue one column.
                let col = match cols.last() {
                    Some(c) if c.name == fields[0] => cols.len() - 1,
                    _ => *col_ids.entry(fields[0]).or_insert_with(|| {
                        cols.push(ColumnDecl {
                            name: fields[0],
                            obj: 0.0,
                            entries: Vec::new(),
                        });
                        cols.len() - 1
                    }),
                };
                for k in (1..fields.len() - 1).step_by(2) {
                    let (row, val) = row_value(k)?;
                    if Some(row) == obj_row {
                        cols[col].obj = val;
                    } else if rows[row].rel.is_some() {
                        cols[col].entries.push((row, val));
                    }
                    // Coefficients on extra free rows are dropped.
                }
            }
            Section::Rhs => {
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(MpsError::Parse(lineno, raw.to_string()));
                }
                for k in (1..fields.len() - 1).step_by(2) {
                    let (row, val) = row_value(k)?;
                    rows[row].rhs = val;
                }
            }
            Section::Ranges => {
                if fields.len() < 3 {
                    return Err(MpsError::Parse(lineno, raw.to_string()));
                }
                for k in (1..fields.len() - 1).step_by(2) {
                    let (row, val) = row_value(k)?;
                    rows[row].range = Some(val);
                }
            }
            Section::Bounds => {
                if fields.len() < 3 {
                    return Err(MpsError::Parse(lineno, raw.to_string()));
                }
                let btype = fields[0].to_ascii_uppercase();
                let entry = bounds.entry(fields[2]).or_insert((0.0, f64::INFINITY));
                let val = || -> Result<f64, MpsError> {
                    fields
                        .get(3)
                        .ok_or_else(|| MpsError::Parse(lineno, raw.to_string()))?
                        .parse()
                        .map_err(|_| MpsError::Parse(lineno, raw.to_string()))
                };
                match btype.as_str() {
                    "UP" => entry.1 = val()?,
                    "LO" => entry.0 = val()?,
                    "FX" => {
                        let v = val()?;
                        *entry = (v, v);
                    }
                    "FR" => *entry = (f64::NEG_INFINITY, f64::INFINITY),
                    "MI" => entry.0 = f64::NEG_INFINITY,
                    "PL" => entry.1 = f64::INFINITY,
                    other => return Err(MpsError::Unsupported(lineno, other.to_string())),
                }
                // MPS quirk: UP with a negative value and default 0 lower
                // implies a free-below variable.
                if btype == "UP" && entry.1 < 0.0 && entry.0 == 0.0 {
                    entry.0 = f64::NEG_INFINITY;
                }
            }
        }
    }

    if obj_row.is_none() {
        return Err(MpsError::NoObjective);
    }

    // Assemble the program: column `j` is variable `j`, and each row's
    // coefficients are gathered column by column.
    let mut lp = LinearProgram::new(name).with_sense(Sense::Min);
    let mut row_len = vec![0usize; rows.len()];
    for col in &cols {
        let (lo, hi) = bounds
            .get(col.name)
            .copied()
            .unwrap_or((0.0, f64::INFINITY));
        lp.add_var(col.name, lo, hi, col.obj);
        for &(row, _) in &col.entries {
            row_len[row] += 1;
        }
    }
    let mut coeffs: Vec<Vec<(VarId, f64)>> =
        row_len.iter().map(|&len| Vec::with_capacity(len)).collect();
    for (j, col) in cols.iter().enumerate() {
        for &(row, val) in &col.entries {
            coeffs[row].push((VarId(j), val));
        }
    }
    for &id in &row_order {
        let (row, rname, coeffs) = (&rows[id], row_names[id], &coeffs[id]);
        let rel = row.rel.expect("constraint rows have a relation");
        match (rel, row.range) {
            (_, None) => {
                lp.add_constraint(rname, coeffs, rel, row.rhs);
            }
            // RANGES: a row becomes two-sided. Semantics per the MPS spec.
            (Rel::Le, Some(r)) => {
                lp.add_constraint(rname, coeffs, Rel::Le, row.rhs);
                lp.add_constraint(format!("{rname}__lo"), coeffs, Rel::Ge, row.rhs - r.abs());
            }
            (Rel::Ge, Some(r)) => {
                lp.add_constraint(rname, coeffs, Rel::Ge, row.rhs);
                lp.add_constraint(format!("{rname}__hi"), coeffs, Rel::Le, row.rhs + r.abs());
            }
            (Rel::Eq, Some(r)) => {
                if r >= 0.0 {
                    lp.add_constraint(rname, coeffs, Rel::Ge, row.rhs);
                    lp.add_constraint(format!("{rname}__hi"), coeffs, Rel::Le, row.rhs + r);
                } else {
                    lp.add_constraint(rname, coeffs, Rel::Le, row.rhs);
                    lp.add_constraint(format!("{rname}__lo"), coeffs, Rel::Ge, row.rhs + r);
                }
            }
        }
    }
    Ok(lp)
}

/// Serialize a [`LinearProgram`] to MPS text.
///
/// Maximization programs are emitted negated (MPS is minimize-only) with a
/// comment noting the flip; bounds are emitted per variable as needed. Each
/// variable's coefficients are listed in constraint order, gathered in one
/// pass over the constraints.
pub fn write(lp: &LinearProgram) -> String {
    let mut out = String::new();
    let flip = match lp.sense {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };
    if flip < 0.0 {
        out.push_str("* maximization model emitted negated (MPS minimizes)\n");
    }
    // Writing to a `String` cannot fail.
    let _ = writeln!(out, "NAME {}", lp.name);
    out.push_str("ROWS\n N OBJ\n");
    for c in lp.constraints() {
        let tag = match c.rel {
            Rel::Le => 'L',
            Rel::Ge => 'G',
            Rel::Eq => 'E',
        };
        let _ = writeln!(out, " {tag} {}", c.name);
    }
    let mut by_var: Vec<Vec<(&str, f64)>> = vec![Vec::new(); lp.num_vars()];
    for c in lp.constraints() {
        for &(vid, a) in &c.coeffs {
            if a != 0.0 {
                by_var[vid.0].push((&c.name, a));
            }
        }
    }
    out.push_str("COLUMNS\n");
    for (v, entries) in lp.vars().iter().zip(&by_var) {
        if v.obj != 0.0 {
            let _ = writeln!(out, "    {} OBJ {}", v.name, v.obj * flip);
        }
        for (cname, a) in entries {
            let _ = writeln!(out, "    {} {cname} {a}", v.name);
        }
    }
    out.push_str("RHS\n");
    for c in lp.constraints() {
        if c.rhs != 0.0 {
            let _ = writeln!(out, "    RHS {} {}", c.name, c.rhs);
        }
    }
    out.push_str("BOUNDS\n");
    for v in lp.vars() {
        let (lo, hi) = (v.lower, v.upper);
        if lo == 0.0 && hi == f64::INFINITY {
            continue; // MPS default
        }
        if lo == hi {
            let _ = writeln!(out, " FX BND {} {lo}", v.name);
            continue;
        }
        if lo == f64::NEG_INFINITY && hi == f64::INFINITY {
            let _ = writeln!(out, " FR BND {}", v.name);
            continue;
        }
        if lo == f64::NEG_INFINITY {
            let _ = writeln!(out, " MI BND {}", v.name);
        } else if lo != 0.0 {
            let _ = writeln!(out, " LO BND {} {lo}", v.name);
        }
        if hi != f64::INFINITY {
            let _ = writeln!(out, " UP BND {} {hi}", v.name);
        }
    }
    out.push_str("ENDATA\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ConstraintId;

    const SAMPLE: &str = "\
* a small sample problem
NAME sample
ROWS
 N COST
 L LIM1
 G LIM2
 E EQ1
COLUMNS
    X1 COST 1.0 LIM1 1.0
    X1 LIM2 1.0
    X2 COST 2.0 LIM1 1.0
    X2 EQ1 -1.0
    X3 COST -1.0 LIM2 1.0 EQ1 1.0
RHS
    RHS LIM1 4.0 LIM2 1.0
    RHS EQ1 7.0
BOUNDS
 UP BND X1 4.0
 LO BND X2 -1.0
ENDATA
";

    #[test]
    fn parses_sample() {
        let lp = parse(SAMPLE).unwrap();
        assert_eq!(lp.name, "sample");
        assert_eq!(lp.num_vars(), 3);
        assert_eq!(lp.num_constraints(), 3);
        let x1 = lp.var_by_name("X1").unwrap();
        assert_eq!(lp.var(x1).obj, 1.0);
        assert_eq!(lp.var(x1).upper, 4.0);
        let x2 = lp.var_by_name("X2").unwrap();
        assert_eq!(lp.var(x2).lower, -1.0);
        let c0 = lp.constraint(ConstraintId(0));
        assert_eq!(c0.name, "LIM1");
        assert_eq!(c0.rel, Rel::Le);
        assert_eq!(c0.rhs, 4.0);
        assert_eq!(c0.coeffs.len(), 2);
        let c2 = lp.constraint(ConstraintId(2));
        assert_eq!(c2.rel, Rel::Eq);
        assert_eq!(c2.rhs, 7.0);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let lp = parse(SAMPLE).unwrap();
        let text = write(&lp);
        let lp2 = parse(&text).unwrap();
        assert_eq!(lp.num_vars(), lp2.num_vars());
        assert_eq!(lp.num_constraints(), lp2.num_constraints());
        for (a, b) in lp.vars().iter().zip(lp2.vars()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.obj, b.obj);
            assert_eq!(a.lower, b.lower);
            assert_eq!(a.upper, b.upper);
        }
        for (a, b) in lp.constraints().iter().zip(lp2.constraints()) {
            assert_eq!(a.rel, b.rel);
            assert_eq!(a.rhs, b.rhs);
            assert_eq!(a.coeffs.len(), b.coeffs.len());
        }
    }

    #[test]
    fn generated_models_roundtrip() {
        let lp = crate::generator::dense_random(6, 9, 5);
        let lp2 = parse(&write(&lp)).unwrap();
        assert_eq!(lp.num_vars(), lp2.num_vars());
        assert_eq!(lp.num_constraints(), lp2.num_constraints());
        // Coefficients preserved to full precision through Display.
        for (a, b) in lp.constraints().iter().zip(lp2.constraints()) {
            for (&(_, x), &(_, y)) in a.coeffs.iter().zip(&b.coeffs) {
                assert!((x - y).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn ranges_expand_to_two_rows() {
        let text = "\
NAME r
ROWS
 N OBJ
 L R1
COLUMNS
    X OBJ 1.0 R1 1.0
RHS
    RHS R1 10.0
RANGES
    RNG R1 4.0
ENDATA
";
        let lp = parse(text).unwrap();
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.constraint(ConstraintId(0)).rel, Rel::Le);
        assert_eq!(lp.constraint(ConstraintId(0)).rhs, 10.0);
        assert_eq!(lp.constraint(ConstraintId(1)).rel, Rel::Ge);
        assert_eq!(lp.constraint(ConstraintId(1)).rhs, 6.0);
    }

    #[test]
    fn free_and_fixed_bounds() {
        let text = "\
NAME b
ROWS
 N OBJ
 L R1
COLUMNS
    X OBJ 1.0 R1 1.0
    Y OBJ 1.0 R1 1.0
    Z R1 1.0
RHS
    RHS R1 1.0
BOUNDS
 FR BND X
 FX BND Y 3.5
 MI BND Z
ENDATA
";
        let lp = parse(text).unwrap();
        let x = lp.var(lp.var_by_name("X").unwrap());
        assert!(x.lower.is_infinite() && x.upper.is_infinite());
        let y = lp.var(lp.var_by_name("Y").unwrap());
        assert_eq!((y.lower, y.upper), (3.5, 3.5));
        let z = lp.var(lp.var_by_name("Z").unwrap());
        assert!(z.lower.is_infinite() && z.lower < 0.0);
        assert!(z.upper.is_infinite() && z.upper > 0.0);
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse("GARBAGE\n"),
            Err(MpsError::UnexpectedLine(1, _))
        ));
        assert!(matches!(
            parse("ROWS\n L R1\nCOLUMNS\n    X R1 1.0\nENDATA\n"),
            Err(MpsError::NoObjective)
        ));
        let bad_ref = "\
NAME x
ROWS
 N OBJ
COLUMNS
    X NOSUCH 1.0
ENDATA
";
        assert!(matches!(parse(bad_ref), Err(MpsError::Unknown(5, _))));
    }

    /// A column split across non-adjacent lines, RANGES on every row type,
    /// every BOUNDS type, a second `N` row and comments.
    const MIXED: &str = "\
* every feature the reader supports, in one model
NAME mixed
ROWS
 N COST
 L LIM1
 G LIM2
 E EQ1
 N FREE
 E EQ2
COLUMNS
    X1 COST 1.0 LIM1 1.0
    X2 COST 2.0 LIM1 1.0
    X2 LIM2 -2.0
* X1 continues after X2: its entries stay in X1's column
    X1 LIM2 1.0 EQ1 -3.5
    X1 FREE 9.0
    X2 EQ1 -1.0 EQ2 2.0
    X3 COST -1.0 LIM2 1.0
    X3 EQ1 1.0
    X4 LIM1 0.5 EQ2 1.0
    X5 COST 0.25 EQ2 -1.0
    X6 LIM2 2.0
    X7 EQ1 1.0
RHS
    RHS LIM1 4.0 LIM2 1.0
    RHS EQ1 7.0 EQ2 -2.0
RANGES
    RNG LIM1 2.5 LIM2 1.5
    RNG EQ1 3.0 EQ2 -1.0
BOUNDS
 UP BND X1 4.0
 LO BND X2 -1.0
 FX BND X3 2.5
 FR BND X4
 MI BND X5
 PL BND X5
 UP BND X6 -2.0
 LO BND X7 1.0
 UP BND X7 3.0
ENDATA
";

    /// `MIXED` built through the model API: variables in column
    /// first-appearance order, each row's coefficients in column order,
    /// ranged rows expanded, the free row's coefficient dropped.
    fn mixed_expected() -> LinearProgram {
        let inf = f64::INFINITY;
        let mut lp = LinearProgram::new("mixed").with_sense(Sense::Min);
        let x1 = lp.add_var("X1", 0.0, 4.0, 1.0);
        let x2 = lp.add_var("X2", -1.0, inf, 2.0);
        let x3 = lp.add_var("X3", 2.5, 2.5, -1.0);
        let x4 = lp.add_var("X4", -inf, inf, 0.0);
        let x5 = lp.add_var("X5", -inf, inf, 0.25);
        let x6 = lp.add_var("X6", -inf, -2.0, 0.0);
        let x7 = lp.add_var("X7", 1.0, 3.0, 0.0);
        let lim1 = [(x1, 1.0), (x2, 1.0), (x4, 0.5)];
        let lim2 = [(x1, 1.0), (x2, -2.0), (x3, 1.0), (x6, 2.0)];
        let eq1 = [(x1, -3.5), (x2, -1.0), (x3, 1.0), (x7, 1.0)];
        let eq2 = [(x2, 2.0), (x4, 1.0), (x5, -1.0)];
        lp.add_constraint("LIM1", &lim1, Rel::Le, 4.0);
        lp.add_constraint("LIM1__lo", &lim1, Rel::Ge, 1.5);
        lp.add_constraint("LIM2", &lim2, Rel::Ge, 1.0);
        lp.add_constraint("LIM2__hi", &lim2, Rel::Le, 2.5);
        lp.add_constraint("EQ1", &eq1, Rel::Ge, 7.0);
        lp.add_constraint("EQ1__hi", &eq1, Rel::Le, 10.0);
        lp.add_constraint("EQ2", &eq2, Rel::Le, -2.0);
        lp.add_constraint("EQ2__lo", &eq2, Rel::Ge, -3.0);
        lp
    }

    #[test]
    fn mixed_fixture_matches_the_model_built_by_hand() {
        // Debug output spells every name, coefficient order and value
        // (including the sign of zero), so equal text is an exact match.
        let parsed = parse(MIXED).unwrap();
        let expected = mixed_expected();
        assert_eq!(format!("{parsed:?}"), format!("{expected:?}"));
        // The writer's text of either reads back to the same model.
        assert_eq!(write(&parsed), write(&expected));
        let again = parse(&write(&parsed)).unwrap();
        assert_eq!(format!("{again:?}"), format!("{expected:?}"));
    }

    #[test]
    fn errors_report_their_line_and_text() {
        let with_columns = |columns: &str| {
            format!("NAME e\nROWS\n N OBJ\n L R1\nCOLUMNS\n{columns}RHS\n    RHS R1 1.0\nENDATA\n")
        };
        let cases = [
            (
                with_columns("    X R1 1.0 R1\n"),
                MpsError::Parse(6, "    X R1 1.0 R1".into()),
            ),
            (
                with_columns("    X R1 1.x\n"),
                MpsError::Parse(6, "1.x".into()),
            ),
            (
                with_columns("    X R1 1.0 R2 2.0\n"),
                MpsError::Unknown(6, "R2".into()),
            ),
            (
                with_columns("    M 'MARKER' 'INTORG'\n"),
                MpsError::Unsupported(6, "integer markers".into()),
            ),
            (
                "NAME e\nROWS\n N OBJ\n Q R1\nENDATA\n".into(),
                MpsError::Parse(4, "Q".into()),
            ),
            (
                "NAME e\nROWS\n N OBJ\nRHS\n    RHS R9 1.0\nENDATA\n".into(),
                MpsError::Unknown(5, "R9".into()),
            ),
            (
                "NAME e\nROWS\n N OBJ\nRANGES\n    RNG OBJ x\nENDATA\n".into(),
                MpsError::Parse(5, "x".into()),
            ),
            (
                "NAME e\nROWS\n N OBJ\nBOUNDS\n BV BND X\nENDATA\n".into(),
                MpsError::Unsupported(5, "BV".into()),
            ),
            (
                "NAME e\nROWS\n N OBJ\nBOUNDS\n UP BND X\nENDATA\n".into(),
                MpsError::Parse(5, " UP BND X".into()),
            ),
            (
                "NAME e\nOBJSENSE\n".into(),
                MpsError::Unsupported(2, "OBJSENSE".into()),
            ),
            (
                "    X\n".into(),
                MpsError::UnexpectedLine(1, "    X".into()),
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(parse(&text).unwrap_err(), expected, "{text}");
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = format!("* leading comment\n\n{SAMPLE}");
        assert!(parse(&text).is_ok());
    }
}
