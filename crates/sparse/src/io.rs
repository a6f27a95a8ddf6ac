//! Matrix Market (`.mtx`) reading and writing.
//!
//! The paper's real-matrix experiments (Figs 14, 15, 17) use 26
//! matrices from the SuiteSparse collection, which is distributed in
//! Matrix Market coordinate format. This parser supports the subset
//! that covers the whole collection's SpGEMM-relevant files:
//! `matrix coordinate {real|integer|pattern} {general|symmetric}`.
//! Symmetric files are expanded to full storage (both triangles), and
//! pattern files get unit values — the same conventions the paper's
//! harness uses.

use crate::{ColIdx, Coo, Csr, SparseError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Matrix Market value field of a coordinate file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Field {
    /// Floating-point values (`%%MatrixMarket matrix coordinate real`).
    #[default]
    Real,
    /// Integer values, read as `f64`.
    Integer,
    /// Structure only; entries get unit values on read.
    Pattern,
}

/// Matrix Market symmetry of a coordinate file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Symmetry {
    /// Every entry stored explicitly.
    #[default]
    General,
    /// Only the lower triangle stored; reading mirrors off-diagonal
    /// entries.
    Symmetric,
}

/// Read a Matrix Market file from disk into a sorted CSR of `f64`.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<Csr<f64>, SparseError> {
    let f = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(f))
}

/// Most triplets [`read_matrix_market_from`] reserves room for on the
/// size line's say-so (20 MB of `f64` triplets).
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

/// Read Matrix Market data from any reader.
pub fn read_matrix_market_from(reader: impl Read) -> Result<Csr<f64>, SparseError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // --- header line ---
    let (mut lineno, header) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    detail: "empty file".into(),
                })
            }
        }
    };
    let toks: Vec<&str> = header.split_whitespace().collect();
    if toks.len() < 5 || !toks[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("bad header: {header:?}"),
        });
    }
    if !toks[1].eq_ignore_ascii_case("matrix") || !toks[2].eq_ignore_ascii_case("coordinate") {
        return Err(SparseError::Parse {
            line: lineno,
            detail: "only 'matrix coordinate' files are supported".into(),
        });
    }
    let field = match toks[3].to_ascii_lowercase().as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        // A well-formed file we deliberately don't model: say so up
        // front at the header rather than failing on an entry line
        // deep into the file.
        "complex" => {
            return Err(SparseError::Unsupported {
                what: "Matrix Market 'complex' field (this library stores real matrices; \
                       split the file into real and imaginary parts)"
                    .into(),
            })
        }
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("unknown field type {other:?}"),
            })
        }
    };
    let symmetry = match toks[4].to_ascii_lowercase().as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other @ ("hermitian" | "skew-symmetric") => {
            return Err(SparseError::Unsupported {
                what: format!(
                    "Matrix Market {other:?} symmetry (general and symmetric are supported)"
                ),
            })
        }
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("unknown symmetry {other:?}"),
            })
        }
    };

    // --- size line (after comments) ---
    let size_line = loop {
        match lines.next() {
            Some((n, line)) => {
                lineno = n + 1;
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break line;
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    detail: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("size line needs 3 fields, got {dims:?}"),
        });
    }
    let parse_usize = |s: &str, what: &str| -> Result<usize, SparseError> {
        s.parse().map_err(|_| SparseError::Parse {
            line: lineno,
            detail: format!("bad {what}: {s:?}"),
        })
    };
    let nrows = parse_usize(dims[0], "row count")?;
    let ncols = parse_usize(dims[1], "column count")?;
    let nnz = parse_usize(dims[2], "nnz count")?;

    // The size line is the file's word, not a fact: reserve no more
    // than the matrix has cells, nor than a fixed ceiling, and let
    // `push` grow past it if the entries really come.
    let cap = match symmetry {
        Symmetry::General => nnz,
        Symmetry::Symmetric => nnz.saturating_mul(2),
    }
    .min(nrows.saturating_mul(ncols))
    .min(MAX_RESERVED_ENTRIES);
    let mut coo = Coo::with_capacity(nrows, ncols, cap)?;
    let mut seen = 0usize;
    for (n, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let lineno = n + 1;
        let mut it = t.split_whitespace();
        let r: usize =
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    detail: "bad row index".into(),
                })?;
        let c: usize =
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    detail: "bad col index".into(),
                })?;
        if r == 0 || c == 0 {
            return Err(SparseError::Parse {
                line: lineno,
                detail: "Matrix Market indices are 1-based".into(),
            });
        }
        // Compared as `usize`, before any narrowing to `ColIdx`.
        if r > nrows || c > ncols {
            return Err(SparseError::Parse {
                line: lineno,
                detail: format!("entry ({r}, {c}) outside the {nrows} x {ncols} matrix"),
            });
        }
        let v: f64 = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => {
                it.next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| SparseError::Parse {
                        line: lineno,
                        detail: "bad value".into(),
                    })?
            }
        };
        let (r0, c0) = (r - 1, (c - 1) as ColIdx);
        coo.push(r0, c0, v)?;
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c - 1, (r - 1) as ColIdx, v)?;
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse {
            line: lineno,
            detail: format!("size line promised {nnz} entries, file had {seen}"),
        });
    }
    Ok(coo.into_csr_sum())
}

/// How [`write_matrix_market_to_with`] spells a matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteOptions {
    /// Value field of the emitted file. `Pattern` drops the values
    /// (reading restores unit values); `Integer` formats values with
    /// their fraction truncated.
    pub field: Field,
    /// `Symmetric` stores only the lower triangle; the matrix must be
    /// square and structurally + numerically symmetric (checked, since
    /// a reader reconstructs the mirror from our word for it).
    pub symmetry: Symmetry,
    /// Emit `real` values in scientific notation (`1.5e3`); both
    /// spellings parse back to the identical `f64`.
    pub scientific: bool,
}

/// Write a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market(path: impl AsRef<Path>, m: &Csr<f64>) -> Result<(), SparseError> {
    let f = std::fs::File::create(path)?;
    write_matrix_market_to(BufWriter::new(f), m)
}

/// Write Matrix Market data to any writer (`real general` layout).
pub fn write_matrix_market_to(w: impl Write, m: &Csr<f64>) -> Result<(), SparseError> {
    write_matrix_market_to_with(w, m, WriteOptions::default())
}

/// Write Matrix Market data with an explicit field/symmetry/notation
/// choice. A `Symmetric` request for a matrix that is not symmetric
/// fails with [`SparseError::Unsupported`] before any entry is
/// emitted.
pub fn write_matrix_market_to_with(
    mut w: impl Write,
    m: &Csr<f64>,
    opts: WriteOptions,
) -> Result<(), SparseError> {
    if opts.symmetry == Symmetry::Symmetric {
        // Pattern files carry no values, so only the *structure* needs
        // a mirror; real/integer files must also agree numerically.
        check_symmetric(m, opts.field != Field::Pattern)?;
    }
    let field = match opts.field {
        Field::Real => "real",
        Field::Integer => "integer",
        Field::Pattern => "pattern",
    };
    let symmetry = match opts.symmetry {
        Symmetry::General => "general",
        Symmetry::Symmetric => "symmetric",
    };
    writeln!(w, "%%MatrixMarket matrix coordinate {field} {symmetry}")?;
    writeln!(w, "% written by spgemm-sparse")?;
    // Symmetric storage counts only the lower triangle.
    let stored = |i: usize, c: ColIdx| opts.symmetry == Symmetry::General || c as usize <= i;
    let nnz = (0..m.nrows())
        .map(|i| m.row_cols(i).iter().filter(|&&c| stored(i, c)).count())
        .sum::<usize>();
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), nnz)?;
    for i in 0..m.nrows() {
        for (&c, &v) in m.row_cols(i).iter().zip(m.row_vals(i)) {
            if !stored(i, c) {
                continue;
            }
            match opts.field {
                Field::Pattern => writeln!(w, "{} {}", i + 1, c + 1)?,
                Field::Integer => writeln!(w, "{} {} {}", i + 1, c + 1, v.trunc() as i64)?,
                Field::Real if opts.scientific => writeln!(w, "{} {} {:e}", i + 1, c + 1, v)?,
                Field::Real => writeln!(w, "{} {} {}", i + 1, c + 1, v)?,
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Symmetric-write precondition: square, and every `(i, j, v)` has a
/// mirror `(j, i, _)` — with an equal value when `check_values` (i.e.
/// for any field that stores values).
fn check_symmetric(m: &Csr<f64>, check_values: bool) -> Result<(), SparseError> {
    if m.nrows() != m.ncols() {
        return Err(SparseError::Unsupported {
            what: format!(
                "symmetric Matrix Market write of a non-square {}x{} matrix",
                m.nrows(),
                m.ncols()
            ),
        });
    }
    for i in 0..m.nrows() {
        for (&c, &v) in m.row_cols(i).iter().zip(m.row_vals(i)) {
            let ok = match m.get(c as usize, i as ColIdx) {
                Some(mirror) => !check_values || *mirror == v,
                None => false,
            };
            if !ok {
                return Err(SparseError::Unsupported {
                    what: format!(
                        "symmetric Matrix Market write: entry ({i}, {c}) has no equal mirror"
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    1 3 -1.5\n\
                    2 2 4\n\
                    3 1 1e2\n";
        let m = read_matrix_market_from(text.as_bytes()).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), Some(&2.0));
        assert_eq!(m.get(0, 2), Some(&-1.5));
        assert_eq!(m.get(2, 0), Some(&100.0));
        assert!(m.is_sorted());
    }

    #[test]
    fn parse_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 1.0\n\
                    2 1 5.0\n";
        let m = read_matrix_market_from(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3, "off-diagonal mirrored, diagonal not doubled");
        assert_eq!(m.get(0, 1), Some(&5.0));
        assert_eq!(m.get(1, 0), Some(&5.0));
        assert_eq!(m.get(0, 0), Some(&1.0));
    }

    #[test]
    fn parse_pattern_gets_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 3 2\n\
                    1 2\n\
                    2 3\n";
        let m = read_matrix_market_from(text.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(&1.0));
        assert_eq!(m.get(1, 2), Some(&1.0));
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(read_matrix_market_from("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market_from(
            "%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn complex_header_is_a_clear_unsupported_error() {
        // A well-formed complex file: the error comes at the header
        // (as Unsupported, naming the feature), not as a Parse failure
        // on the 4-token entry lines further down.
        let text = "%%MatrixMarket matrix coordinate complex general\n\
                    2 2 2\n\
                    1 1 1.0 0.5\n\
                    2 2 2.0 -0.5\n";
        match read_matrix_market_from(text.as_bytes()) {
            Err(SparseError::Unsupported { what }) => {
                assert!(what.contains("complex"), "{what}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // Hermitian / skew-symmetric likewise.
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n";
        assert!(matches!(
            read_matrix_market_from(text.as_bytes()),
            Err(SparseError::Unsupported { .. })
        ));
    }

    #[test]
    fn write_symmetric_stores_lower_triangle_only() {
        let m = Csr::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 5.0), (2, 0, 5.0), (1, 1, 2.0)])
            .unwrap();
        let mut buf = Vec::new();
        write_matrix_market_to_with(
            &mut buf,
            &m,
            WriteOptions {
                symmetry: Symmetry::Symmetric,
                ..WriteOptions::default()
            },
        )
        .unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("real symmetric"));
        assert!(text.contains("3 3 3"), "one mirror dropped: {text}");
        let back = read_matrix_market_from(buf.as_slice()).unwrap();
        assert_eq!(back, m, "expansion restores the full matrix");
    }

    #[test]
    fn write_symmetric_rejects_asymmetric_input() {
        let m = Csr::from_triplets(2, 2, &[(0, 1, 3.0)]).unwrap();
        let e = write_matrix_market_to_with(
            &mut Vec::new(),
            &m,
            WriteOptions {
                symmetry: Symmetry::Symmetric,
                ..WriteOptions::default()
            },
        );
        assert!(matches!(e, Err(SparseError::Unsupported { .. })), "{e:?}");
        let rect = Csr::<f64>::zero(2, 3);
        assert!(write_matrix_market_to_with(
            &mut Vec::new(),
            &rect,
            WriteOptions {
                symmetry: Symmetry::Symmetric,
                ..WriteOptions::default()
            },
        )
        .is_err());
    }

    #[test]
    fn pattern_symmetric_needs_only_structural_symmetry() {
        // Structurally symmetric, numerically asymmetric: fine as a
        // pattern file (values are dropped anyway), rejected as real.
        let m = Csr::from_triplets(2, 2, &[(0, 1, 5.0), (1, 0, 3.0)]).unwrap();
        let sym_opts = |field| WriteOptions {
            field,
            symmetry: Symmetry::Symmetric,
            ..WriteOptions::default()
        };
        let mut buf = Vec::new();
        write_matrix_market_to_with(&mut buf, &m, sym_opts(Field::Pattern)).unwrap();
        let back = read_matrix_market_from(buf.as_slice()).unwrap();
        assert_eq!(back, m.map(|_| 1.0), "structure round-trips");
        assert!(matches!(
            write_matrix_market_to_with(&mut Vec::new(), &m, sym_opts(Field::Real)),
            Err(SparseError::Unsupported { .. })
        ));
    }

    #[test]
    fn write_pattern_and_scientific_round_trip() {
        let m = Csr::from_triplets(2, 3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market_to_with(
            &mut buf,
            &m,
            WriteOptions {
                field: Field::Pattern,
                ..WriteOptions::default()
            },
        )
        .unwrap();
        assert!(String::from_utf8(buf.clone()).unwrap().contains("pattern"));
        assert_eq!(read_matrix_market_from(buf.as_slice()).unwrap(), m);

        let m = Csr::from_triplets(1, 2, &[(0, 0, 1.25e-30), (0, 1, -7.5e18)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market_to_with(
            &mut buf,
            &m,
            WriteOptions {
                scientific: true,
                ..WriteOptions::default()
            },
        )
        .unwrap();
        assert!(String::from_utf8(buf.clone()).unwrap().contains('e'));
        assert_eq!(
            read_matrix_market_from(buf.as_slice()).unwrap(),
            m,
            "scientific notation parses back bit-exact"
        );
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 3.0\n";
        let e = read_matrix_market_from(text.as_bytes());
        assert!(matches!(e, Err(SparseError::Parse { .. })));
    }

    #[test]
    fn rejects_an_index_that_only_fits_after_truncation() {
        // 4294967297 = 2^32 + 1 narrows to column 1.
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 4294967297 1.0\n";
        let err = read_matrix_market_from(src.as_bytes());
        assert!(
            matches!(err, Err(SparseError::Parse { line: 3, .. })),
            "{err:?}"
        );
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_matrix_market_from(src.as_bytes());
        assert!(
            matches!(err, Err(SparseError::Parse { line: 3, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn an_absurd_entry_count_is_an_error_not_an_allocation() {
        for symmetry in ["general", "symmetric"] {
            for nnz in ["1000000000000000000", "18446744073709551615"] {
                let src = format!(
                    "%%MatrixMarket matrix coordinate real {symmetry}\n1000000 1000000 {nnz}\n1 1 1.0\n"
                );
                let err = read_matrix_market_from(src.as_bytes());
                assert!(
                    matches!(err, Err(SparseError::Parse { .. })),
                    "{symmetry} {nnz}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market_from(text.as_bytes()).is_err());
    }

    #[test]
    fn round_trip() {
        let m = Csr::from_triplets(3, 4, &[(0, 1, 1.5), (1, 0, -2.0), (2, 3, 7.25)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market_to(&mut buf, &m).unwrap();
        let back = read_matrix_market_from(buf.as_slice()).unwrap();
        assert_eq!(back.shape(), m.shape());
        assert!(crate::csr::approx_eq_f64(&m, &back, 0.0));
    }

    #[test]
    fn duplicate_entries_sum_per_mm_convention() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    1 1 2\n\
                    1 1 1.0\n\
                    1 1 2.0\n";
        let m = read_matrix_market_from(text.as_bytes()).unwrap();
        assert_eq!(m.get(0, 0), Some(&3.0));
    }
}
