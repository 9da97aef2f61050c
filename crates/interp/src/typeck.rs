//! Static type inference over the lowered program, feeding the typed
//! block compiler ([`crate::opt`]).
//!
//! Every storage location in mini-Fortran is monomorphic by construction:
//! every store converts the value to the slot's declared (or implicit)
//! type, array storage is homogeneous, and hoist slots cache one fixed
//! expression. So "inference" is seeding slot types from
//! `scalar_defaults`/`array_decls` and computing expression types
//! bottom-up with the promotion rules in [`analyzer::types`] — which
//! mirror `exec::try_binop`/`try_intrinsic` exactly. A straight-line
//! statement whose every operand type is known compiles to plain
//! `f64`/`i64` register ops; one with an unknown type stays on the
//! tree-walker.
//!
//! One type is only *declared*, not proven: an array parameter's element
//! type, since sequence association lets a caller pass storage of either
//! type. The executor checks each view's storage type at block entry and
//! walks the block's statements instead when it differs.

use crate::lower::{Intr, LExpr, LProc, LProgram, LStmt};
use analyzer::types::{binop_ty, intrinsic_ty, unop_ty, ProcTypes, Ty, TypeReport};

/// Owned slot-type tables for one procedure.
pub(crate) struct ProcTyEnv {
    /// Scalar slot -> type (from the typed zero defaults).
    pub scalars: Vec<Ty>,
    /// Array slot -> element type (from the declarations).
    pub arrays: Vec<Ty>,
    /// Hoist slot -> type of the cached expression, filled in statement
    /// order as the annotation walk encounters each loop's hoists.
    pub hoists: Vec<Ty>,
}

impl ProcTyEnv {
    pub fn new(proc: &LProc) -> Self {
        let scalars = proc
            .scalar_defaults
            .iter()
            .map(|s| Ty::of_scalar_type(s.ty()))
            .collect();
        let mut arrays = vec![Ty::Unknown; proc.array_names.len()];
        for d in &proc.array_decls {
            arrays[d.slot as usize] = Ty::of_scalar_type(d.ty);
        }
        ProcTyEnv {
            scalars,
            arrays,
            hoists: vec![Ty::Unknown; proc.hoist_slots],
        }
    }
}

fn intr_rule_name(op: Intr) -> Option<&'static str> {
    Some(match op {
        Intr::Mod => "mod",
        Intr::Min => "min",
        Intr::Max => "max",
        Intr::Abs => "abs",
        Intr::Sqrt => "sqrt",
        Intr::Sin => "sin",
        Intr::Cos => "cos",
        Intr::Exp => "exp",
        Intr::Log => "log",
        Intr::Floor => "floor",
        Intr::Int => "int",
        Intr::Real => "real",
        Intr::Unknown => return None,
    })
}

pub(crate) fn lexpr_ty(e: &LExpr, env: &ProcTyEnv) -> Ty {
    match e {
        LExpr::Int(_) => Ty::Int,
        LExpr::Real(_) => Ty::Real,
        LExpr::Const { v, .. } => Ty::of_scalar_type(v.ty()),
        LExpr::Var(slot) => env.scalars[*slot as usize].clone(),
        LExpr::Hoisted { slot, .. } => env.hoists[*slot as usize].clone(),
        LExpr::ArrayRef { slot, .. } => match slot {
            Some(s) => env.arrays[*s as usize].clone(),
            None => Ty::Unknown,
        },
        LExpr::Intrinsic { op, args, .. } => match intr_rule_name(*op) {
            Some(name) => {
                let tys: Vec<Ty> = args.iter().map(|a| lexpr_ty(a, env)).collect();
                intrinsic_ty(name, &tys)
            }
            None => Ty::Unknown,
        },
        LExpr::Unary { op, operand } => unop_ty(*op, &lexpr_ty(operand, env)),
        LExpr::Binary { op, lhs, rhs } => {
            binop_ty(*op, &lexpr_ty(lhs, env), &lexpr_ty(rhs, env))
        }
    }
}

/// Count straight-line statements: `(typed, untyped)` — compiled into
/// typed blocks, or left to the tree-walker.
fn count_stmts(stmts: &[LStmt], counts: &mut (usize, usize)) {
    for s in stmts {
        match s {
            LStmt::Do { body, .. } => count_stmts(body, counts),
            LStmt::If {
                then_body,
                else_body,
                ..
            } => {
                count_stmts(then_body, counts);
                count_stmts(else_body, counts);
            }
            LStmt::Block { stmts, .. } => {
                counts.0 += stmts
                    .iter()
                    .filter(|s| !matches!(s, LStmt::SetVar { .. }))
                    .count();
            }
            LStmt::AssignScalar { .. } | LStmt::AssignArray { .. } => counts.1 += 1,
            _ => {}
        }
    }
}

/// Infer slot-level types for `program` and report how many assignment
/// statements the optimizer compiled to typed register code. Runs the same lowering
/// and optimization pipeline as execution (with default options), so the
/// counts are exactly what [`crate::run_program`] runs.
pub fn analyze_types(program: &fir::ast::Program) -> Result<TypeReport, fir::Errors> {
    fir::validate::validate(program)?;
    let mut lowered = crate::lower::lower(program);
    crate::opt::optimize(&mut lowered, &crate::cost::Options::default());
    Ok(report_of(&lowered))
}

fn report_of(program: &LProgram) -> TypeReport {
    let mut report = TypeReport::default();
    for proc in &program.procs {
        let env = ProcTyEnv::new(proc);
        let mut counts = (0usize, 0usize);
        count_stmts(&proc.body, &mut counts);
        report.procs.push(ProcTypes {
            name: proc.name.clone(),
            scalars: proc
                .scalar_names
                .iter()
                .cloned()
                .zip(env.scalars.iter().cloned())
                .collect(),
            arrays: proc
                .array_names
                .iter()
                .cloned()
                .zip(env.arrays.iter().map(|t| Ty::Array(Box::new(t.clone()))))
                .collect(),
            chains_typed: counts.0,
            chains_dyn: counts.1,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_chains_are_typed() {
        let src = "program m\n\
                   real :: a(16)\n\
                   do i = 1, 16\n\
                   t = 0.0\n\
                   do j = 1, 8\n\
                   t = t + i * j + 0.5\n\
                   end do\n\
                   a(i) = t * 0.5 + i\n\
                   end do\n\
                   end program";
        let program = fir::parse_validated(src).unwrap();
        let report = analyze_types(&program).unwrap();
        assert!(
            report.chains_typed() > 0,
            "real accumulator chains should specialize: {report:?}"
        );
        let main = &report.procs[0];
        let t = main.scalars.iter().find(|(n, _)| n == "t").unwrap();
        assert_eq!(t.1, Ty::Real);
        let i = main.scalars.iter().find(|(n, _)| n == "i").unwrap();
        assert_eq!(i.1, Ty::Int);
        let a = main.arrays.iter().find(|(n, _)| n == "a").unwrap();
        assert_eq!(a.1, Ty::Array(Box::new(Ty::Real)));
    }

    #[test]
    fn integer_division_compiles_typed() {
        // `i / 2` has a known integer type: its zero check travels with
        // the typed op instead of keeping the statement on the
        // tree-walker. The 8-trip loop unrolls into 8 typed copies.
        let src = "program m\n\
                   integer :: k(8)\n\
                   do i = 1, 8\n\
                   k(i) = i * 3 - i / 2\n\
                   end do\n\
                   end program";
        let program = fir::parse_validated(src).unwrap();
        let report = analyze_types(&program).unwrap();
        assert_eq!(
            (report.chains_typed(), report.chains_dyn()),
            (8, 0),
            "{report:?}"
        );
    }

    #[test]
    fn type_report_is_monomorphic_per_slot() {
        let src = "program m\n\
                   x = 1.5\n\
                   n = 3\n\
                   end program";
        let program = fir::parse_validated(src).unwrap();
        let report = analyze_types(&program).unwrap();
        let main = &report.procs[0];
        // Implicit typing: x -> real, n -> integer.
        assert!(main.scalars.iter().any(|(n, t)| n == "x" && *t == Ty::Real));
        assert!(main.scalars.iter().any(|(n, t)| n == "n" && *t == Ty::Int));
    }
}
