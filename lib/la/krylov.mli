(** Preconditioned conjugate gradient for SPD operators given as black boxes. *)

type result = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  breakdown : bool;
      (** The recurrence met a non-positive-definite direction (p' A p <= 0)
          and stopped; [converged] then only holds at a 10x relaxed
          threshold. Distinct from plain non-convergence: it means the
          operator (or preconditioner) is not SPD along the Krylov space,
          and more iterations would not have helped. *)
  residual_norm : float;
      (** The trustworthy residual: on ordinary convergence this is the
          recurrence residual that crossed the threshold; after a breakdown
          or a max-iteration exit it is the {e true} residual
          [||b - A x||], recomputed with one extra operator application on
          that exit path only (the recurrence value can drift arbitrarily
          far once the iteration misbehaves). *)
  recurrence_residual : float;
      (** The residual the PCG recurrence tracked at exit. Equal to
          [residual_norm] on ordinary convergence. *)
  residual_mismatch : bool;
      (** The recurrence and true residuals disagree by more than 10x:
          the recurrence lost accuracy and per-iteration numbers should
          be distrusted. Always [false] on ordinary convergence. *)
}

(** Accumulates per-solve iteration counts across many solves, for the
    preconditioner-effectiveness experiments (thesis Table 2.1), plus the
    number of solves that ended in a CG breakdown. *)
type stats = {
  mutable solves : int;
  mutable total_iterations : int;
  mutable breakdowns : int;
}

val make_stats : unit -> stats
val average_iterations : stats -> float

(** [merge_stats ~into s] folds [s] into [into]. Parallel batched solves
    give each concurrent solve its own stats record and merge afterwards,
    so no two domains ever share one. *)
val merge_stats : into:stats -> stats -> unit

(** [cg ~apply b] solves [A x = b] where [apply v = A v].
    [precond] applies an SPD preconditioner inverse M^{-1}.
    Converges when the 2-norm residual falls below [tol * ||b||].

    Callback contract: every array passed to [apply] or [precond] is one
    of the solver's working vectors (the iterate, the residual or the
    search direction). It is read-only and only valid for the duration
    of the call — a callback must neither retain nor mutate it. In turn,
    [cg] consumes each callback result before the next call, so a
    callback may reuse its own output buffer. [b] and [x0] are never
    written; the returned [x] is fresh.

    Raises [Invalid_argument] when [x0] and [b] differ in length, or when
    a callback returns a vector whose length differs from [b]'s. Results
    are bit-identical to the textbook PCG recurrence with an explicit
    identity preconditioner (the boxed reference in the test suite). *)
val cg :
  ?precond:(Vec.t -> Vec.t) ->
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Vec.t ->
  ?stats:stats ->
  apply:(Vec.t -> Vec.t) ->
  Vec.t ->
  result
