(* The textbook PCG recurrence on freshly allocated float arrays — the
   bit-identity oracle for [La.Krylov.cg] (test/test_la.ml) and the
   baseline side of the gated CG rows in [bench --only kernels]. It is the
   naive form [Krylov.cg] was derived from: an explicit identity
   preconditioner (a per-iteration copy) when none is given, separate
   [norm2 r] and [dot r z] reductions, fresh arrays for x, r and p. Not
   trace-instrumented: bench comparisons against [cg] should measure the
   recurrence, not span overhead. Not part of the installed library. *)

open La
open Krylov

let cg_boxed ?precond ?(tol = 1e-9) ?(max_iter = 10_000) ?x0 ?stats ~apply b =
  let n = Array.length b in
  let precond = match precond with Some p -> p | None -> Vec.copy in
  let x = match x0 with Some x -> Vec.copy x | None -> Vec.create n in
  let r = Vec.sub b (apply x) in
  let bnorm = Vec.norm2 b in
  let threshold = if bnorm > 0.0 then tol *. bnorm else 1e-300 in
  let z = precond r in
  let p = Vec.copy z in
  let rz = ref (Vec.dot r z) in
  let iterations = ref 0 in
  let rnorm = ref (Vec.norm2 r) in
  let converged = ref (!rnorm <= threshold) in
  let breakdown = ref false in
  while (not !converged) && (not !breakdown) && !iterations < max_iter do
    incr iterations;
    let ap = apply p in
    let pap = Vec.dot p ap in
    if pap <= 0.0 then breakdown := true
    else begin
      let alpha = !rz /. pap in
      Vec.axpy ~alpha p x;
      Vec.axpy ~alpha:(-.alpha) ap r;
      rnorm := Vec.norm2 r;
      if !rnorm <= threshold then converged := true
      else begin
        let z = precond r in
        let rz' = Vec.dot r z in
        let beta = rz' /. !rz in
        rz := rz';
        for i = 0 to n - 1 do
          p.(i) <- z.(i) +. (beta *. p.(i))
        done
      end
    end
  done;
  let recurrence_residual = !rnorm in
  let residual_norm, residual_mismatch =
    if !converged && not !breakdown then (recurrence_residual, false)
    else begin
      let true_norm = Vec.norm2 (Vec.sub b (apply x)) in
      let mismatch =
        true_norm > 10.0 *. recurrence_residual || recurrence_residual > 10.0 *. true_norm
      in
      (true_norm, mismatch)
    end
  in
  if !breakdown then converged := residual_norm <= threshold *. 10.0;
  (match stats with
  | Some s ->
    s.solves <- s.solves + 1;
    s.total_iterations <- s.total_iterations + !iterations;
    if !breakdown then s.breakdowns <- s.breakdowns + 1
  | None -> ());
  {
    x;
    iterations = !iterations;
    converged = !converged;
    breakdown = !breakdown;
    residual_norm;
    recurrence_residual;
    residual_mismatch;
  }
