(** Loading [.cmt] typedtrees for the typed lint pass.

    dune already compiles every module with [-bin-annot]; the resulting
    [.cmt] files (under [.<lib>.objs/byte/] and [.<exe>.eobjs/byte/]) carry
    the full typedtree with inferred types and resolved [Path.t]s — exactly
    what the interprocedural rules need and the Parsetree cannot give. *)

type unit_info = {
  ci_source : string;
      (** source path as recorded by the compiler, repo-relative under dune
          (e.g. ["lib/la/krylov.ml"]) *)
  ci_modname : string;  (** compilation unit name, e.g. ["La__Krylov"] *)
  ci_structure : Typedtree.structure;
}

val read_file : string -> (unit_info option, string) result
(** Read one [.cmt]. [Ok None] for units that are not implementation
    typedtrees or have no [.ml] source (dune's generated alias modules);
    [Error msg] when the file cannot be read (foreign compiler version,
    truncation, ...). *)

val load : cmt_root:string -> paths:string list -> unit_info list * Finding.t list
(** Walk [cmt_root] for [*.cmt] files and keep the units whose recorded
    source file lies under one of [paths] (path prefixes relative to the
    repo root, e.g. [["lib"; "bin"]], or exact [.ml] paths). Units are
    deduplicated by source file and sorted by it; unreadable [.cmt]s come
    back as [Parse_error] findings. *)
