(** Precomputed FFT/DCT plans: bit-reversal permutation, per-stage twiddle
    factors and the DCT-II boundary twist for one power-of-two length,
    computed once and cached per length behind a mutex. *)

type t

val create : int -> t
(** Build a plan for a power-of-two length (raises [Invalid_argument]
    otherwise). Prefer {!get}, which caches. *)

val get : int -> t
(** The shared plan for this length; thread-safe, builds on first use. *)

val fft : t -> sign:int -> float array -> float array -> unit
(** In-place FFT of (re, im) using the plan's tables; [sign] as in
    [Fft.transform]. *)

val dct2_raw : t -> float array -> off:int -> stride:int -> float array -> float array -> unit
(** [dct2_raw t x ~off ~stride re im]: unnormalized DCT-II, in place, of the
    plan's length of values [x.(off + k * stride)]; [re]/[im] are
    caller-provided scratch of at least the plan's length. *)

val idct2_raw : t -> float array -> off:int -> stride:int -> float array -> float array -> unit
(** Exact inverse of {!dct2_raw}, same calling convention. *)
