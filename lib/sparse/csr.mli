(** Compressed sparse row matrices. *)

type t

val rows : t -> int
val cols : t -> int
val nnz : t -> int

(** Total entries divided by nonzeros — the "sparsity" reported in the
    thesis's tables (a dense matrix has sparsity 1). *)
val sparsity_factor : t -> float

val of_coo : Coo.t -> t

(** Convert a dense matrix, keeping entries with magnitude above [threshold]
    (default 0: keep exact nonzeros). *)
val of_dense : ?threshold:float -> La.Mat.t -> t

val to_dense : t -> La.Mat.t
val gemv : t -> La.Vec.t -> La.Vec.t
val gemv_t : t -> La.Vec.t -> La.Vec.t

(** Fused multi-RHS product: [apply_batch t xs] returns [|A xs.(0); ...|]
    computed in one sweep over the matrix — each CSR entry is read once
    per block instead of once per column. Every output column is
    bit-identical to [gemv t xs.(c)]. *)
val apply_batch : t -> La.Vec.t array -> La.Vec.t array

(** Fused transposed multi-RHS product; each output column bit-identical
    to [gemv_t t xs.(c)] (including the exact-zero input skip). *)
val apply_batch_t : t -> La.Vec.t array -> La.Vec.t array

val transpose : t -> t

(** Drop entries with magnitude at most the given threshold. *)
val drop_below : t -> float -> t

val max_abs : t -> float
val iter : t -> (int -> int -> float -> unit) -> unit

(** Find a magnitude threshold such that [drop_below] leaves roughly
    [target] times fewer nonzeros. *)
val threshold_for_sparsity : t -> target:float -> float

(** Write in Matrix Market coordinate format (1-based indices). *)
val to_matrix_market : ?comment:string -> t -> out_channel -> unit

(** Read a Matrix Market coordinate-format matrix. *)
val of_matrix_market : in_channel -> t

(** Visit the entries of row [i]. *)
val iter_row : t -> int -> (int -> float -> unit) -> unit

(** [pack ~rows ~cols ~row_ptr ~col_idx ~values] builds a matrix directly
    from raw CSR arrays (copied), validating every structural invariant —
    pointer monotonicity, length consistency, column-index range. Meant
    for deserialization paths that must not trust their input.
    @raise Invalid_argument describing the violated invariant. *)
val pack :
  rows:int -> cols:int -> row_ptr:int array -> col_idx:int array -> values:float array -> t

(** The raw CSR arrays [(row_ptr, col_idx, values)], as copies. Inverse of
    {!pack}; values round-trip bit-exactly. *)
val unpack : t -> int array * int array * float array
