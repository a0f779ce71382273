(** Tridiagonal solver (Thomas algorithm), used per Fourier mode by the fast
    Poisson preconditioner. All arrays describing a system have length n;
    [lower.(0)] and [upper.(n-1)] are ignored. *)

(** The elimination of one tridiagonal matrix, independent of any
    right-hand side. *)
type factor

(** [factor ~lower ~diag ~upper] eliminates the matrix once.
    @raise Invalid_argument on a dimension mismatch or an exactly zero
    pivot. *)
val factor : lower:float array -> diag:float array -> upper:float array -> factor

(** [solve_factored f ~off ~stride x] overwrites the right-hand side stored
    at [x.(off + i * stride)], [i < n], with the solution. Allocates
    nothing; the result is bit-identical to {!solve}.
    @raise Invalid_argument if those positions fall outside [x]. *)
val solve_factored : factor -> off:int -> stride:int -> float array -> unit

(** [solve ~lower ~diag ~upper ~rhs] solves the tridiagonal system:
    {!factor} followed by {!solve_factored} on a copy of [rhs]. *)
val solve : lower:float array -> diag:float array -> upper:float array -> rhs:float array -> float array

(** Multiply the tridiagonal matrix by a vector (for testing). *)
val apply : lower:float array -> diag:float array -> upper:float array -> Vec.t -> Vec.t
