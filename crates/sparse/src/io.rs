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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Field {
    /// Floating-point values (`%%MatrixMarket matrix coordinate real`).
    Real,
    /// Integer values, read as `f64`.
    Integer,
    /// Structure only; entries get unit values on read.
    Pattern,
}

/// Matrix Market symmetry of a coordinate file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Symmetry {
    /// Every entry stored explicitly.
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

/// Write a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market(path: impl AsRef<Path>, m: &Csr<f64>) -> Result<(), SparseError> {
    let f = std::fs::File::create(path)?;
    write_matrix_market_to(BufWriter::new(f), m)
}

/// Write Matrix Market data to any writer (`real general` layout).
/// Rust's shortest-round-trip float formatting makes a read of it
/// bit-exact.
pub fn write_matrix_market_to(mut w: impl Write, m: &Csr<f64>) -> Result<(), SparseError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by spgemm-sparse")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for i in 0..m.nrows() {
        for (&c, &v) in m.row_cols(i).iter().zip(m.row_vals(i)) {
            writeln!(w, "{} {} {}", i + 1, c + 1, v)?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 6\n\
                    1 1 2.0\n\
                    1 3 -1.5\n\
                    2 2 4\n\
                    2 3 1.5e3\n\
                    3 1 1e2\n\
                    3 3 -2E-4\n";
        let m = read_matrix_market_from(text.as_bytes()).unwrap();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.get(0, 0), Some(&2.0));
        assert_eq!(m.get(0, 2), Some(&-1.5));
        assert_eq!(m.get(1, 2), Some(&1500.0));
        assert_eq!(m.get(2, 0), Some(&100.0));
        assert_eq!(m.get(2, 2), Some(&-2e-4));
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
