(** Orthonormal DCT-II / DCT-III transforms, 1-D and 2-D.

    The orthonormal scaling makes the transform matrix orthogonal, so
    [dct_iii] is both the inverse and the transpose of [dct_ii]; operators
    conjugated by these transforms stay symmetric. Power-of-two lengths run
    in O(n log n) via the FFT; other lengths use the direct O(n^2) sum. *)

(** Orthonormal DCT-II: [y_k = s_k sum_n x_n cos(pi (n + 1/2) k / N)]. *)
val dct_ii : float array -> float array

(** Inverse (= transpose) of [dct_ii]. *)
val dct_iii : float array -> float array

(** 2-D separable transforms on flat row-major data, x fastest
    (index [ix + nx * iy]). *)
val dct_ii_2d : nx:int -> ny:int -> float array -> float array

val dct_iii_2d : nx:int -> ny:int -> float array -> float array

(** [dct_ii_planes ~nx ~ny a] overwrites every [nx * ny] plane of [a]
    (plane [p] at offset [p * nx * ny]) with its {!dct_ii_2d}, bit for
    bit. Power-of-two sizes allocate only O(nx + ny) scratch per call.
    @raise Invalid_argument unless [Array.length a] is a multiple of
    [nx * ny]. *)
val dct_ii_planes : nx:int -> ny:int -> float array -> unit

(** In-place {!dct_iii_2d} of every plane, as {!dct_ii_planes}. *)
val dct_iii_planes : nx:int -> ny:int -> float array -> unit

(** Eigenvalue [2 - 2 cos(pi k / n)] of the 1-D cell-centered Neumann
    Laplacian for DCT-II mode [k]; the diagonal the fast Poisson solver uses. *)
val neumann_laplacian_eigenvalue : n:int -> k:int -> float
