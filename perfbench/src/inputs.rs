//! Seeded workload inputs: generated models, their MPS text, and the
//! round-trip check that the parsed copy is the generated model.

use lp::{LinearProgram, VarId};

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A copy of `model` with its rows and columns shuffled by a permutation
/// drawn from `seed`. The LP is the same problem, so the solvers do the
/// same amount of work up to floating-point summation order; the input
/// the program reads is still different for every seed.
pub fn permuted(model: &LinearProgram, seed: u64) -> LinearProgram {
    let mut state = mix(seed, 0x5045_524d) | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut shuffle = |len: usize| {
        let mut p: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            p.swap(i, next(i + 1));
        }
        p
    };
    let cols = shuffle(model.num_vars());
    let rows = shuffle(model.num_constraints());
    let mut new_index = vec![0usize; cols.len()];
    for (new, &old) in cols.iter().enumerate() {
        new_index[old] = new;
    }
    let mut out = LinearProgram::new(format!("{}-p{seed:x}", model.name)).with_sense(model.sense);
    for &old in &cols {
        let v = &model.vars()[old];
        out.add_var(v.name.clone(), v.lower, v.upper, v.obj);
    }
    for &old in &rows {
        let c = &model.constraints()[old];
        let mut coeffs: Vec<(VarId, f64)> = c
            .coeffs
            .iter()
            .map(|&(v, a)| (VarId(new_index[v.0]), a))
            .collect();
        coeffs.sort_by_key(|&(v, _)| v.0);
        out.add_constraint(c.name.clone(), &coeffs, c.rel, c.rhs);
    }
    out
}

/// Compare a parsed model with the model it was written from: dimensions,
/// nonzero count, and the exact bits of every objective coefficient and
/// right-hand side. Returns the first mismatch.
pub fn round_trip_mismatch(generated: &LinearProgram, parsed: &LinearProgram) -> Option<String> {
    let name = &generated.name;
    if generated.num_vars() != parsed.num_vars()
        || generated.num_constraints() != parsed.num_constraints()
    {
        return Some(format!(
            "{name}: dimensions {}x{} parsed as {}x{}",
            generated.num_constraints(),
            generated.num_vars(),
            parsed.num_constraints(),
            parsed.num_vars()
        ));
    }
    if generated.nnz() != parsed.nnz() {
        return Some(format!(
            "{name}: nnz {} parsed as {}",
            generated.nnz(),
            parsed.nnz()
        ));
    }
    let obj_sign = if generated.sense == parsed.sense {
        1.0
    } else {
        -1.0
    };
    for (j, (g, p)) in generated.vars().iter().zip(parsed.vars()).enumerate() {
        if g.obj.to_bits() != (obj_sign * p.obj).to_bits() {
            return Some(format!(
                "{name}: objective of column {j} is {} vs {}",
                g.obj, p.obj
            ));
        }
    }
    for (i, (g, p)) in generated
        .constraints()
        .iter()
        .zip(parsed.constraints())
        .enumerate()
    {
        if g.rhs.to_bits() != p.rhs.to_bits() {
            return Some(format!("{name}: rhs of row {i} is {} vs {}", g.rhs, p.rhs));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_keeps_the_problem_and_changes_the_input() {
        let base = lp::generator::sparse_random(30, 40, 0.1, 3);
        let a = permuted(&base, 1);
        let b = permuted(&base, 2);
        assert_eq!(a.nnz(), base.nnz());
        assert_ne!(lp::mps::write(&a), lp::mps::write(&b));
        let mut objs: Vec<u64> = a.vars().iter().map(|v| v.obj.to_bits()).collect();
        let mut base_objs: Vec<u64> = base.vars().iter().map(|v| v.obj.to_bits()).collect();
        objs.sort_unstable();
        base_objs.sort_unstable();
        assert_eq!(objs, base_objs);
    }

    #[test]
    fn mps_round_trip_is_exact_for_generated_models() {
        let model = lp::generator::dense_random(12, 15, 9);
        let parsed = lp::mps::parse(&lp::mps::write(&model)).unwrap();
        assert_eq!(round_trip_mismatch(&model, &parsed), None);
    }
}
