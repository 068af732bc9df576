//! Order-independent digests of result row sets.
//!
//! Every engine returns a [`Relation`] over its own value dictionary and in
//! its own row order, so results are compared by a digest of the *decoded*
//! rows that ignores order: the row count plus a wrapping sum and an xor of
//! per-row hashes. The hash is spelled out here (not `std`'s `Hasher`) so a
//! digest recorded in a results file means the same thing on every
//! toolchain.

use raqlet::{Relation, Value};

/// Digest of a set of rows. Equal sets give equal digests whatever the row
/// order; the two independent accumulators make an accidental match between
/// different sets of the same size vanishingly unlikely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Digest {
    /// Number of rows.
    pub rows: u64,
    sum: u64,
    xor: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Int(i) => mix(*i as u64 ^ 0x1111_1111_1111_1111),
        Value::Str(s) => {
            let fnv = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            mix(fnv ^ 0x2222_2222_2222_2222)
        }
        Value::Bool(b) => mix(u64::from(*b) ^ 0x3333_3333_3333_3333),
        Value::Null => mix(0x4444_4444_4444_4444),
    }
}

impl Digest {
    /// Fold one row in. Column position matters; row order does not.
    pub fn add_row(&mut self, row: &[Value]) {
        let h = row.iter().fold(row.len() as u64, |h, v| mix(h.rotate_left(7) ^ hash_value(v)));
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= mix(h);
    }

    /// Digest of a relation's live rows.
    pub fn of(rel: &Relation) -> Digest {
        let mut d = Digest::default();
        for row in rel.iter() {
            d.add_row(&row);
        }
        d
    }

    /// A single number standing for the digest (results files, the
    /// determinism check).
    pub fn fingerprint(&self) -> u64 {
        mix(self.rows ^ self.sum.rotate_left(21) ^ self.xor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of_rows(rows: &[Vec<Value>]) -> Digest {
        let mut d = Digest::default();
        rows.iter().for_each(|r| d.add_row(r));
        d
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(3), Value::Null],
            vec![Value::Int(-7), Value::Bool(true)],
        ]
    }

    #[test]
    fn digest_ignores_row_order() {
        let fwd = rows();
        let mut rev = rows();
        rev.reverse();
        rev.swap(0, 2);
        let a = of_rows(&fwd);
        let b = of_rows(&rev);
        assert_eq!(a, b);
        assert_eq!(a.rows, 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn digest_sees_values_columns_and_cardinality() {
        let base = of_rows(&rows());
        let mut changed = rows();
        changed[1][1] = Value::str("c");
        assert_ne!(base, of_rows(&changed));
        let swapped: Vec<Vec<Value>> =
            rows().into_iter().map(|r| vec![r[1].clone(), r[0].clone()]).collect();
        assert_ne!(base, of_rows(&swapped));
        assert_ne!(base, of_rows(&rows()[..3]));
        // Int 1 and Str "1" and Bool true are different values.
        let one = |v: Value| of_rows(&[vec![v]]);
        assert_ne!(one(Value::Int(1)), one(Value::str("1")));
        assert_ne!(one(Value::Int(1)), one(Value::Bool(true)));
    }

    #[test]
    fn digest_of_a_relation_matches_its_rows_across_dictionaries() {
        let a = Relation::from_tuples(2, rows()).unwrap();
        let mut shuffled = rows();
        shuffled.rotate_left(2);
        let b = Relation::from_tuples(2, shuffled).unwrap();
        assert_eq!(Digest::of(&a), Digest::of(&b));
    }
}
