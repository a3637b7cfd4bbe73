(** A compiled compilation unit: the typed tree dune's [@check] alias
    writes to a [.cmt] file, paired with the source text it was
    compiled from.  Every lint rule reads its names, types and
    locations from this tree; the source lines only serve excerpts,
    suppression comments and H003's same-line-comment test. *)

type t = {
  path : string;
      (** repo-relative source path, ['/']-separated; [.ml-gen] for
          the alias module dune generates for a wrapped library *)
  modname : string;  (** compilation unit name, e.g. [Netgraph__Pool] *)
  lines : string array;  (** source lines *)
  structure : Typedtree.structure;
  has_mli : bool;  (** a sibling [.mli] exists *)
}

(** Raised by {!load} with a message naming the offending source file
    when a scanned [.ml] has no [.cmt], or the [.cmt] was compiled
    from different contents than the file on disk. *)
exception Stale of string

(** [load ~root paths] reads the compiled form of each repo-relative
    [.ml] in [paths].  The [.cmt] files are looked up in the dune
    object directories next to the sources (when [root] is itself a
    dune build tree) or else in the enclosing workspace's
    [_build/default].  The result lists the units of [paths] in order,
    then the generated alias modules of their directories, which
    carry the library wrappers' module aliases. *)
val load : root:string -> string list -> t list

(** [is_source u] — [u] comes from a [.ml] file, not a generated
    alias module. *)
val is_source : t -> bool

(** 1-based (line, column) of a location's start. *)
val pos : Location.t -> int * int

(** String helpers shared by the rule layers. *)
val starts_with : string -> string -> bool

(** ["Stdlib.Random.int"] -> ["int"] *)
val last_component : string -> string

(** First index of [needle] in a string, if any. *)
val find_sub : string -> string -> int option

(** The trimmed source line, or [""] out of range. *)
val excerpt : t -> int -> string
