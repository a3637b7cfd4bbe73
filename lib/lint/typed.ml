(* Loading compiled units: find each scanned .ml's .cmt in the dune
   object directories, refuse stale or missing ones, and pair the
   typed tree with the source lines. *)

type t = {
  path : string;
  modname : string;
  lines : string array;
  structure : Typedtree.structure;
  has_mli : bool;
}

exception Stale of string

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* [root] as seen from the nearest enclosing dune workspace's
   _build/default, where the compiler's outputs for a source checkout
   live. *)
let mirror root =
  let abs = if Filename.is_relative root then Filename.concat (Sys.getcwd ()) root else root in
  (* lexically normalized components, outermost first *)
  let comps =
    List.rev
      (List.fold_left
         (fun acc c ->
           match c with
           | "" | "." -> acc
           | ".." -> ( match acc with _ :: up -> up | [] -> [])
           | c -> c :: acc)
         [] (String.split_on_char '/' abs))
  in
  let rec up anc rest =
    let build = "/" ^ String.concat "/" (List.rev anc @ [ "_build"; "default" ]) in
    if Sys.file_exists build && Sys.is_directory build then
      Some (String.concat "/" (build :: rest))
    else match anc with last :: anc -> up anc (last :: rest) | [] -> None
  in
  up (List.rev comps) []

let entries dir suffix =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.sort String.compare names;
    Array.to_list names
    |> List.filter (fun e -> Filename.check_suffix e suffix)
    |> List.map (Filename.concat dir)

(* The dune object directories holding .cmt files for sources in [dir]. *)
let object_dirs dir =
  entries dir ".objs" @ entries dir ".eobjs"
  |> List.filter (fun d -> (Filename.basename d).[0] = '.')
  |> List.map (fun d -> Filename.concat d "byte")
  |> List.filter Sys.file_exists

let is_source u = Filename.check_suffix u.path ".ml"

let load ~root paths =
  let mirror = lazy (mirror root) in
  let dirs = List.sort_uniq String.compare (List.map Filename.dirname paths) in
  let found = Hashtbl.create 128 and generated = ref [] in
  List.iter
    (fun dir ->
      let objs =
        match object_dirs (Filename.concat root dir) with
        | [] -> (
          match Lazy.force mirror with
          | Some m -> object_dirs (Filename.concat m dir)
          | None -> [])
        | objs -> objs
      in
      List.iter
        (fun file ->
          let cmt = Cmt_format.read_cmt file in
          match (cmt.cmt_sourcefile, cmt.cmt_annots) with
          | Some src, Cmt_format.Implementation structure ->
            let path = dir ^ "/" ^ Filename.basename src in
            if Filename.check_suffix src ".ml-gen" then
              generated :=
                { path; modname = cmt.cmt_modname; lines = [||]; structure;
                  has_mli = true }
                :: !generated
            else Hashtbl.replace found path (cmt, structure)
          | _ -> ())
        (List.concat_map (fun d -> entries d ".cmt") objs))
    dirs;
  let units =
    List.map
      (fun path ->
        let abs = Filename.concat root path in
        match Hashtbl.find_opt found path with
        | None ->
          raise
            (Stale
               (path ^ ": no .cmt file; build it first (dune build @check)"))
        | Some (cmt, structure) ->
          let contents = read_file abs in
          if cmt.Cmt_format.cmt_source_digest <> Some (Digest.string contents)
          then
            raise
              (Stale
                 (path
                ^ ": the .cmt was compiled from other contents; rebuild \
                   (dune build @check)"));
          {
            path;
            modname = cmt.cmt_modname;
            lines = Array.of_list (String.split_on_char '\n' contents);
            structure;
            has_mli = Sys.file_exists (abs ^ "i");
          })
      paths
  in
  units @ List.rev !generated

let pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol + 1)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let last_component path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let find_sub needle s =
  let n = String.length needle and h = String.length s in
  let rec go i =
    if i + n > h then None
    else if String.sub s i n = needle then Some i
    else go (i + 1)
  in
  go 0

let excerpt u line =
  if line >= 1 && line <= Array.length u.lines then
    String.trim u.lines.(line - 1)
  else ""
