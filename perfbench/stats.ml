(* Order statistics for benchmark samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile: the sample of rank ceil(pct * n / 100)
   (1-based). Integer arithmetic, so rank boundaries never depend on how
   0.99 rounds. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

let percentile ~pct xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted xs).(rank ~pct n - 1)

type tail = {
  q : float;  (** the percentile actually reported, as a fraction *)
  value : float;
  samples : int;
  beyond : int;  (** samples strictly above the reported rank *)
}

(* The highest percentile, up to the 99th, that still has at least 10
   samples beyond it: a tail figure backed by fewer samples than that is
   noise. [None] when even the median lacks them. *)
let tail xs =
  let n = Array.length xs in
  let k = min (rank ~pct:99 n) (n - 10) in
  if n = 0 || k < rank ~pct:50 n then None
  else
    Some
      {
        q = float_of_int k /. float_of_int n;
        value = (sorted xs).(k - 1);
        samples = n;
        beyond = n - k;
      }
