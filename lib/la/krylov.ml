(* Preconditioned conjugate gradient.

   Both substrate solvers are Krylov methods on a symmetric positive
   (semi-)definite operator given as a black box (thesis §2.2.2): the
   finite-difference grid Laplacian with a fast-Poisson or incomplete-Cholesky
   preconditioner, and the eigenfunction solver's contact-panel operator.
   The implementation is the standard PCG recurrence that only needs
   applications of M^{-1}, not M^{-1/2} (Golub & Van Loan §11.5).

   Every vector is a plain float array. The iterate x, residual r and
   direction p are allocated once per solve and updated in place; r and p
   cross the black-box boundary as they are (see the .mli contract), so
   no iteration copies a vector. Relative to the textbook recurrence the
   per-iteration work drops three vector passes and one allocation: with
   no preconditioner z is r (the identity preconditioner would be a
   per-iteration copy; [dot r z] = [dot r r] and [z.(i) + beta * p.(i)] =
   [r.(i) + beta * p.(i)] on the alias), and the residual-norm and rz
   reductions collapse into ONE dot product since
   [norm2 r = sqrt (dot r r)] exactly. Every pass keeps the textbook
   operation order, so results are bit-identical to the naive boxed
   recurrence kept as the test oracle (test/reference/cg_reference.ml). *)

type result = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  breakdown : bool;
  residual_norm : float;
  recurrence_residual : float;
  residual_mismatch : bool;
}

type stats = {
  mutable solves : int;
  mutable total_iterations : int;
  mutable breakdowns : int;
}

let make_stats () = { solves = 0; total_iterations = 0; breakdowns = 0 }

let average_iterations s =
  if s.solves = 0 then 0.0 else float_of_int s.total_iterations /. float_of_int s.solves

(* Fold one stats record into another. Parallel batched solves give each
   concurrent solve its own stats record (the fields are plain mutable ints)
   and merge them back on the caller once the batch completes. *)
let merge_stats ~into s =
  into.solves <- into.solves + s.solves;
  into.total_iterations <- into.total_iterations + s.total_iterations;
  into.breakdowns <- into.breakdowns + s.breakdowns

let cg_span = "krylov.cg"
let iterations_dist = Trace.dist "krylov.iterations"
let breakdown_counter = Trace.counter "krylov.breakdowns"
let mismatch_counter = Trace.counter "krylov.residual_mismatches"

(* p <- z + beta * p in place: the CG direction update. *)
let update_direction ~beta (z : Vec.t) (p : Vec.t) =
  if Array.length z <> Array.length p then
    invalid_arg
      (Printf.sprintf "Krylov.cg: preconditioned residual has dimension %d, direction %d"
         (Array.length z) (Array.length p));
  for i = 0 to Array.length p - 1 do
    Array.unsafe_set p i (Array.unsafe_get z i +. (beta *. Array.unsafe_get p i))
  done
[@@lint.hotpath "equal lengths checked on entry; i bounded by the loop"]

let cg ?precond ?(tol = 1e-9) ?(max_iter = 10_000) ?x0 ?stats ~apply b =
  Trace.with_span cg_span (fun () ->
  let n = Array.length b in
  let x =
    match x0 with
    | Some x0 when Array.length x0 <> n ->
      invalid_arg
        (Printf.sprintf "Krylov.cg: x0 has dimension %d, b has %d" (Array.length x0) n)
    | Some x0 -> Vec.copy x0
    | None -> Vec.create n
  in
  (* Every vector handed to [apply] or [precond] is read-only and only
     valid for the duration of the call; every result is consumed before
     the next call, so callbacks may reuse their own output buffer (see
     the .mli contract). *)
  let r = Vec.sub b (apply x) in
  let bnorm = Vec.norm2 b in
  let threshold = if bnorm > 0.0 then tol *. bnorm else 1e-300 in
  (* Without a preconditioner z aliases r and the rz reduction doubles as
     the residual norm. *)
  let z = match precond with Some f -> f r | None -> r in
  let p = Vec.copy z in
  let rz = ref (Vec.dot r z) in
  let iterations = ref 0 in
  let rnorm = ref (match precond with Some _ -> Vec.norm2 r | None -> sqrt !rz) in
  let converged = ref (!rnorm <= threshold) in
  let breakdown = ref false in
  while (not !converged) && (not !breakdown) && !iterations < max_iter do
    incr iterations;
    let ap = apply p in
    let pap = Vec.dot p ap in
    if pap <= 0.0 then
      (* Operator not positive definite along p (or exact convergence in
         exact arithmetic). The direction cannot be used — repeating it
         would divide by ~0 and every further iteration would reuse the
         same bad p — so stop immediately and flag the breakdown. The
         stale iterate is accepted only at a 10x relaxed threshold
         (decided below against the *true* residual, recomputed on this
         exit path), and callers can now see that this happened instead
         of mistaking it for ordinary convergence. *)
      breakdown := true
    else begin
      let alpha = !rz /. pap in
      Vec.axpy ~alpha p x;
      Vec.axpy ~alpha:(-.alpha) ap r;
      match precond with
      | Some f ->
        rnorm := Vec.norm2 r;
        if !rnorm <= threshold then converged := true
        else begin
          let z = f r in
          let rz' = Vec.dot r z in
          let beta = rz' /. !rz in
          rz := rz';
          update_direction ~beta z p
        end
      | None ->
        (* One reduction serves both exits: [sqrt d] is bitwise
           [norm2 r], and [d] is the [dot r z] of the textbook
           recurrence (z = copy of r). The textbook recurrence sweeps r
           three times here (norm2, copy, dot); this sweeps once. *)
        let d = Vec.dot r r in
        rnorm := sqrt d;
        if !rnorm <= threshold then converged := true
        else begin
          let beta = d /. !rz in
          rz := d;
          update_direction ~beta r p
        end
    end
  done;
  (* Exit diagnostics. On the happy path the recurrence residual just
     crossed the threshold and is trusted as-is. After a breakdown or a
     max-iteration exit the recurrence value can drift arbitrarily far
     from ||b - A x|| (the recurrence keeps subtracting alpha*Ap from a
     stale r), so recompute the true residual — one extra apply, on the
     failure path only — and report *that* as [residual_norm]. A >10x
     disagreement between the two is flagged: it means the recurrence
     itself lost accuracy and iteration counts should be distrusted. *)
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
  (* The relaxed breakdown acceptance now judges the trustworthy number. *)
  if !breakdown then converged := residual_norm <= threshold *. 10.0;
  (match stats with
  | Some s ->
    s.solves <- s.solves + 1;
    s.total_iterations <- s.total_iterations + !iterations;
    if !breakdown then s.breakdowns <- s.breakdowns + 1
  | None -> ());
  Trace.observe iterations_dist (float_of_int !iterations);
  if !breakdown then Trace.incr breakdown_counter;
  if residual_mismatch then Trace.incr mismatch_counter;
  {
    x;
    iterations = !iterations;
    converged = !converged;
    breakdown = !breakdown;
    residual_norm;
    recurrence_residual;
    residual_mismatch;
  })
