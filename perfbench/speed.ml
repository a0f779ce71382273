(* Host speed, sampled while timed work runs.

   On the shared hosts the benchmark runs on, a vCPU's physical core is
   shared with another tenant's thread. With no steal counted, the same
   deterministic FD extraction takes anywhere from about 1.6 s (the other
   thread idle) to 3.4 s (the other thread busy), in episodes from a
   fraction of a second to whole minutes. The steal-adjusted clock does
   not see this, and a reference kernel timed before and after the work
   does not track it either: the episodes are shorter than the work.

   So the speed is sampled during the work itself. A timer interrupts the
   process every [period_s] and the signal handler runs a fixed kernel —
   a 3-point stencil swept over two 64 KiB arrays, the access pattern of
   the FD solver's matrix-free apply — and records how long it took. A
   sample's speed is [reference_s] over that duration; [speed] is their
   mean over the interval, 1.0 at the reference speed. The work's own time
   is the interval's wall time less the time spent in the kernel, and
   [at_reference] rescales it to the reference speed. The kernel takes
   about 2% of the interval and touches 128 KiB of cache, the same for
   every version of the program under test. In parallel work the handler
   runs on whichever domain reaches a poll point first, so the samples
   come from the vCPUs the work runs on. *)

let period_s = 0.1

(* The kernel's duration at the reference speed: about what it takes on
   a 2.1 GHz Xeon vCPU whose core is also running another tenant. *)
let reference_s = 0.002
let sweeps = 32
let cells = 8192
let src = Array.make cells 1.0
let dst = Array.make cells 0.0

let kernel () =
  for _ = 1 to sweeps do
    for i = 1 to cells - 2 do
      dst.(i) <- (0.25 *. (src.(i - 1) +. src.(i + 1))) +. (0.5 *. src.(i))
    done;
    for i = 1 to cells - 2 do
      src.(i) <- (0.25 *. (dst.(i - 1) +. dst.(i + 1))) +. (0.5 *. dst.(i))
    done
  done

type t = {
  samples : int;
  kernel_s : float;  (** wall time spent in the kernel *)
  speed : float;  (** mean of [reference_s / duration]; 1.0 with no sample *)
}

let of_durations ds =
  let n = List.length ds in
  {
    samples = n;
    kernel_s = List.fold_left ( +. ) 0.0 ds;
    speed =
      (if n = 0 then 1.0
       else List.fold_left (fun acc d -> acc +. (reference_s /. d)) 0.0 ds /. float_of_int n);
  }

let now () = Int64.to_float (Trace.now_ns ()) *. 1e-9
let timer v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

(* [sampled f] runs [f ()] with the sampler on and returns its result with
   the samples taken. [f] must make no blocking system calls: the timer's
   signal would interrupt them. *)
let sampled f =
  let ds = ref [] in
  let on_alarm _ =
    let t0 = now () in
    kernel ();
    ds := (now () -. t0) :: !ds
  in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle on_alarm) in
  timer period_s;
  let r =
    Fun.protect
      ~finally:(fun () ->
        timer 0.0;
        Sys.set_signal Sys.sigalrm previous)
      f
  in
  (r, of_durations !ds)

(* How closely an extraction's time follows the kernel's: the kernel
   speeds up more than the solvers when the other thread on the core goes
   idle (about 1.85 times against 1.6). Extraction time went as speed to
   the power -0.77 over 99 pairs of repetitions of one layout in the FD
   workload and -0.53 over 75 in the eig workload, whose parallel half the
   samples see one vCPU of; with 0.75 for both, twenty runs of each
   workload spread least. *)
let sensitivity = 0.75

(* [wall] seconds of interval, rescaled to the reference speed with the
   kernel's own time taken out. *)
let at_reference t ~wall = (wall -. t.kernel_s) *. (t.speed ** sensitivity)
