(* Steal time: CPU time the hypervisor gave to other guests while this
   guest's vCPUs wanted to run, as the guest kernel accounts it in the
   first line of /proc/stat.

   The benchmark runs on shared virtual machines, where the stolen share
   changes from minute to minute. A timed interval is therefore also
   reported on a steal-adjusted clock: its wall time times the share of
   the busy CPU time in the interval that was not stolen. With every busy
   vCPU losing the same share, that is the time the interval would have
   taken on a host nobody else used. Idle time is left out of the share,
   so an interval with one busy vCPU is adjusted by that vCPU's loss. *)

type sample = { busy : int; steal : int }
(** clock ticks summed over the vCPUs; [busy] includes [steal] *)

let zero = { busy = 0; steal = 0 }

(* Fields of the "cpu" line: user nice system idle iowait irq softirq
   steal [guest guest_nice], the guest fields being already in user and
   nice. *)
let parse line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ -> (
    match List.map int_of_string_opt [ user; nice; system; irq; softirq; steal ] with
    | [ Some u; Some n; Some s; Some i; Some si; Some st ] ->
      Some { busy = u + n + s + i + si + st; steal = st }
    | _ -> None)
  | _ -> None

(* [zero] where /proc/stat cannot be read: every interval is then
   unadjusted. *)
let sample () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> Option.value ~default:zero (parse line)
  | None -> zero
  | exception Sys_error _ -> zero

(* The stolen share of the busy time between two samples, in [0, 1]. *)
let share a b =
  let busy = b.busy - a.busy in
  if busy <= 0 then 0.0 else float_of_int (b.steal - a.steal) /. float_of_int busy

let adjust ~wall a b = wall *. (1.0 -. share a b)
