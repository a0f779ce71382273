(* The benchmark's workloads and how each resolves to a problem.

   Every workload runs the whole user pipeline — .scn scenario, black-box
   extraction, .sca artifact, in-process apply, the substrate_serve daemon
   answering socket clients — so every end-to-end metric is measured on
   every workload. What differs is the problem and where the time goes:

   - extract-fd: the wavelet method on a floating-backplane process with
     the sequential finite-difference solver; 40% of the window is
     repeated extractions, the rest serves the artifact. Solver-bound with
     an idle pool, so eigsolver, pool and low-rank changes should leave it
     unchanged.
   - serve-mixed: the paper's headline low-rank method on the large
     (thesis Fig 4-10) layout with the parallel eigenfunction/DCT solver.
     Set-up extracts the artifact, saves it and starts the daemon, several
     times, so pool, DCT, CG and fill_gw work all show in its extraction
     figures; the window is closed-loop serving, one connection sending
     single matvecs next to one sending 16-RHS batches, with no solver
     work.

   The seed is the only input that varies: it drives the contact
   placement and the probe vectors. A run extracts a fixed set of seeded
   layouts, so the counts a layout decides (solves, storage, Krylov
   iterations) are medians over them that repeat exactly at a fixed
   seed. *)

type method_ = Lowrank | Wavelet
type phase = Extract | Serve

type t = {
  name : string;
  scenario : [ `Registry of string | `File of string ];
  per_side : int;
  method_ : method_;
  phase : phase;
  col_err_bound : float;
      (** largest acceptable [col_rel_err]; see the anchors below *)
}

(* Accuracy anchors, on the largest entrywise relative error over a
   sample of columns. Low-rank on the large layout: EXPERIMENTS.md Table
   4.3, example 5 — paper 5.3%, measured 4.2% at n = 524; the bound allows
   twice the paper's figure. Wavelet: Table 3.1, examples 1b/2 — paper
   0.2% unthresholded; the bound allows about ten times that, because
   this workload's 32x32x8 FD grid under a floating backplane is far
   coarser than the paper's grids (EXPERIMENTS.md traces Table 3.1's FD
   degradation to grid coarseness). Over about 40 seeded layouts of each
   workload the largest values seen were 6.2% and 1.2%. *)
let lowrank_bound = 0.106
let wavelet_bound = 0.025

let serve_mixed =
  {
    name = "serve-mixed";
    scenario = `Registry "large";
    per_side = 32;
    method_ = Lowrank;
    phase = Serve;
    col_err_bound = lowrank_bound;
  }

let extract_fd =
  {
    name = "extract-fd";
    scenario = `File "extract-fd.scn";
    per_side = 16;
    method_ = Wavelet;
    phase = Extract;
    col_err_bound = wavelet_bound;
  }

let all = [ extract_fd; serve_mixed ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

exception Rejected of string

let reject w fmt = Printf.ksprintf (fun msg -> raise (Rejected (w.name ^ ": " ^ msg))) fmt

let describe_params w (scn : Scenario.t) =
  Printf.sprintf "scenario %s, per-side %d, solver %s" scn.Scenario.name w.per_side
    (match scn.Scenario.solver with
    | Scenario.Eig { panels } -> Printf.sprintf "eig with %d panels" panels
    | Scenario.Fd { nx; nz } -> Printf.sprintf "fd on a %dx%dx%d grid" nx nx nz
    | Scenario.Fd_direct { nx; nz } -> Printf.sprintf "fd-direct on a %dx%dx%d grid" nx nx nz)

(* Distinct seeded layouts per run. *)
let layouts = 3

(* The placement seed of a run's [j]-th layout. *)
let layout_seed ~seed j = (seed * 7919) + j

(* The scenario and layout for placement seed [seed]. [scenario_dir] holds
   the shipped .scn files. Parameters the library cannot take are
   rejected with a message naming the workload, never passed on to crash
   it. *)
let resolve w ~scenario_dir ~seed =
  let base () =
    match w.scenario with
    | `Registry name -> (
      match Scenario.find name with
      | Some s -> s
      | None -> reject w "scenario %s is not in the registry" name)
    | `File f -> Scenario.of_file (Filename.concat scenario_dir f)
  in
  match
    let s = Scenario.with_seed (Scenario.with_per_side (base ()) w.per_side) seed in
    (s, Scenario.layout s)
  with
  | r -> r
  | exception Invalid_argument msg -> reject w "parameters rejected: %s" msg
  | exception Sys_error msg -> reject w "scenario unreadable: %s" msg
  | exception Scenario.Sexp.Error { file; line; col; message } ->
    reject w "%s" (Scenario.Sexp.format_error ~file ~line ~col ~message)

(* The solver's black box. Both solvers check at construction that every
   contact owns at least one unknown (a panel centre, a grid node); the
   failure is turned into a rejection that names the workload and the
   parameters that caused it. *)
let blackbox w (scn, layout) =
  match Scenario.blackbox scn layout with
  | box -> box
  | exception Eigsolver.Panel.Contact_without_panels id ->
    reject w "parameters rejected (%s): contact %d covers no panel centre" (describe_params w scn)
      id
  | exception Invalid_argument msg ->
    reject w "parameters rejected (%s): %s" (describe_params w scn) msg
