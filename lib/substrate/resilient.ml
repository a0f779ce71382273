(* Retry / escalation policies around a black-box solver.

   Wraps a primary box (and an optional ladder of lazily-built fallback
   boxes — tighter tolerance, different preconditioner, direct solver) with
   a bounded-attempt solve loop:

   - a *hard* failure is a [Blackbox.Solve_failed] (non-finite response);
   - a *soft* failure is a finite response whose solve report says the
     iteration did not converge (read from [Blackbox.last_report ()], which
     works because the attempt runs on this domain).

   Either kind advances to the next attempt: the primary again first (which
   recovers transient faults bit-identically — the retry re-runs the very
   same solver), then down the fallback ladder from attempt 3 on.
   Fallbacks are [Lazy.t] because building one can be expensive (a direct
   factorization, a re-planned eigenbasis); a ladder that is never needed
   costs nothing.

   When attempts are exhausted the policy either raises a typed
   [Solve_failed] naming the logical solve index ([Fail]) or records the
   failure and substitutes the best finite iterate seen — lowest reported
   residual, or zeros if every attempt was hard ([Degrade]). Degraded
   solves are never silent: they are pushed onto [failures] and flagged in
   the box's health record.

   Every attempt runs under [Blackbox.with_context ~index ~attempt], giving
   inner wrappers (fault injection) and error messages a stable logical
   solve index independent of retries and scheduling. Batches assign
   index = base + position, so the numbering is identical for every [jobs]
   value. *)

let src = Logs.Src.create "substrate.resilient" ~doc:"Black-box solve retry/escalation"

module Log = (val Logs.src_log src : Logs.LOG)

type on_exhausted = Fail | Degrade

type policy = {
  max_attempts : int;  (* total attempts per solve, including the first *)
  retry_non_converged : bool;  (* treat a non-converged report as a failure *)
  on_exhausted : on_exhausted;
}

let default_policy = { max_attempts = 3; retry_non_converged = true; on_exhausted = Fail }
let fail_fast = { max_attempts = 1; retry_non_converged = false; on_exhausted = Fail }
let degrade = { default_policy with on_exhausted = Degrade }

type failure = {
  solve_index : int;
  attempts : int;
  degraded : bool;  (* false: raised Solve_failed; true: substituted an iterate *)
  reason : string;
}

type t = {
  policy : policy;
  primary : Blackbox.t;
  fallbacks : (string * Blackbox.t Lazy.t) array;
  n : int;
  next_index : int Atomic.t;
  retries : int Atomic.t;
  mutex : Mutex.t;
  mutable failures : failure list;  (* most recent first *)
}

let create ?(policy = default_policy) ?(fallbacks = []) ?(first_index = 0) primary =
  if policy.max_attempts < 1 then invalid_arg "Resilient.create: max_attempts must be >= 1";
  if first_index < 0 then invalid_arg "Resilient.create: first_index must be non-negative";
  {
    policy;
    primary;
    fallbacks = Array.of_list fallbacks;
    n = Blackbox.n primary;
    next_index = Atomic.make first_index;
    retries = Atomic.make 0;
    mutex = Mutex.create ();
    failures = [];
  }

(* Attempt k (1-based): the primary twice, then the fallback ladder,
   parking on its last rung. Attempt 2 retrying the primary is what keeps
   transient-fault recovery bit-identical to a clean run — escalating to a
   fallback (tighter tolerance, different preconditioner) would solve the
   same right-hand side to different bits. The ladder is for faults that
   survive a plain retry. With no fallbacks every attempt retries the
   primary. *)
let box_for t k =
  if k <= 2 || Array.length t.fallbacks = 0 then ("primary", t.primary)
  else begin
    let i = min (k - 3) (Array.length t.fallbacks - 1) in
    let name, lazy_box = t.fallbacks.(i) in
    (* Pool domains reach this concurrently, and a domain forcing a lazy
       that another domain is forcing raises [CamlinternalLazy.Undefined],
       so every force is serialized. [Lazy.is_val] cannot serve as a
       lock-free fast path: it already answers true while the build runs.
       Fallback attempts are rare, so the lock costs nothing measurable. *)
    (name, Mutex.protect t.mutex (fun () -> Lazy.force lazy_box))
  end

let record_failure t f =
  Mutex.protect t.mutex (fun () -> t.failures <- f :: t.failures)

let attempt_span = "resilient.attempt"
let retry_counter = Trace.counter "resilient.retries"
let degraded_counter = Trace.counter "resilient.degraded"

let describe_soft (r : Health.report) =
  Printf.sprintf "not converged (residual %.3e after %d iterations%s)" r.residual r.iterations
    (if r.breakdown then ", CG breakdown" else "")

let solve_indexed t index v =
  (* [best] is the lowest-residual finite iterate across soft failures;
     hard failures contribute nothing. *)
  let rec attempt k ~best ~log_lines =
    let label, box = box_for t k in
    match
      Blackbox.with_context ~index ~attempt:k (fun () ->
          Trace.with_span attempt_span (fun () -> Blackbox.apply box v))
    with
    | y ->
      let report = Blackbox.last_report () in
      let soft =
        t.policy.retry_non_converged
        && match report with Some r -> not r.converged | None -> false
      in
      if not soft then begin
        if k > 1 then
          Log.info (fun m -> m "solve %d recovered on attempt %d (%s)" index k label);
        y
      end
      else begin
        let r = Option.get report in
        let line = Printf.sprintf "attempt %d (%s): %s" k label (describe_soft r) in
        let best =
          match best with
          | Some (_, res) when res <= r.residual -> best
          | _ -> Some (y, r.residual)
        in
        next k ~best ~log_lines:(line :: log_lines)
      end
    | exception Blackbox.Solve_failed f ->
      let line = Printf.sprintf "attempt %d (%s): %s" k label f.reason in
      next k ~best ~log_lines:(line :: log_lines)
  and next k ~best ~log_lines =
    if k < t.policy.max_attempts then begin
      Atomic.incr t.retries;
      Trace.incr retry_counter;
      attempt (k + 1) ~best ~log_lines
    end
    else exhausted ~best ~log_lines
  and exhausted ~best ~log_lines =
    let reason = String.concat "; " (List.rev log_lines) in
    match t.policy.on_exhausted with
    | Fail ->
      record_failure t
        { solve_index = index; attempts = t.policy.max_attempts; degraded = false; reason };
      raise
        (Blackbox.Solve_failed
           {
             index;
             reason =
               Printf.sprintf "failed after %d attempt(s): %s" t.policy.max_attempts reason;
           })
    | Degrade ->
      record_failure t
        { solve_index = index; attempts = t.policy.max_attempts; degraded = true; reason };
      Log.warn (fun m ->
          m "solve %d degraded after %d attempt(s): %s" index t.policy.max_attempts reason);
      Trace.incr degraded_counter;
      (* Flag the substitution in the wrapper box's health record: the
         synthesized report below is what [make_batch] picks up. *)
      Blackbox.set_pending_report
        { Health.ok with converged = false; residual = Float.infinity };
      (match best with
      | Some (y, _) -> y
      | None -> Array.make t.n 0.0)
  in
  attempt 1 ~best:None ~log_lines:[]

let blackbox t =
  let solve v = solve_indexed t (Atomic.fetch_and_add t.next_index 1) v in
  let batch ~jobs vs =
    let base = Atomic.fetch_and_add t.next_index (Array.length vs) in
    let one i = solve_indexed t (base + i) vs.(i) in
    if jobs <= 1 || Array.length vs <= 1 then Array.init (Array.length vs) one
    else
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.map_chunks pool one (Array.init (Array.length vs) Fun.id))
  in
  Blackbox.make_batch ~count_total:false ~n:t.n ~batch solve

let retries t = Atomic.get t.retries
let failures t = Mutex.protect t.mutex (fun () -> List.rev t.failures)
let degraded_count t =
  Mutex.protect t.mutex (fun () ->
      List.fold_left (fun acc f -> if f.degraded then acc + 1 else acc) 0 t.failures)

let pp_failure ppf f =
  Format.fprintf ppf "solve %d (%s after %d attempt(s)): %s" f.solve_index
    (if f.degraded then "degraded" else "failed")
    f.attempts f.reason
