(** The naive boxed PCG recurrence, kept outside the library as the
    bit-identity reference for {!La.Krylov.cg} and the baseline of the
    gated CG rows of the [kernels] bench. Fresh arrays per call, no trace
    instrumentation; same arguments and result as {!La.Krylov.cg}. *)

val cg_boxed :
  ?precond:(La.Vec.t -> La.Vec.t) ->
  ?tol:float ->
  ?max_iter:int ->
  ?x0:La.Vec.t ->
  ?stats:La.Krylov.stats ->
  apply:(La.Vec.t -> La.Vec.t) ->
  La.Vec.t ->
  La.Krylov.result
