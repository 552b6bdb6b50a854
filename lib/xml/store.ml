(** Document store.

    Resolves the [document("uri")] function of the query engine and gives
    the learner a single universe of nodes spanning several documents
    (XMP scenarios join [bib.xml] with [reviews.xml]).

    A store is complete when its constructor returns: the flattened
    element/attribute node universe, an id->node table, a value index
    and the frozen array snapshots are built once, up front, and nothing
    changes them afterwards.  The value index is shared with
    {!Xl_core.Data_graph} so building the data graph does not re-scan
    every document. *)

type t = {
  docs : Doc.t list;  (** registration order *)
  univ : Node.t list;
      (** element/attribute nodes, document order within each document,
          documents in registration order — the extent universe *)
  by_id : (int, Node.t) Hashtbl.t;  (** every node, text and doc included *)
  by_value : (string, Node.t list) Hashtbl.t;
      (** direct value -> value-bearing nodes (v-equality neighbours) *)
  frozen : Frozen.t list;
      (** one immutable array snapshot per document, registration order —
          the frozen extent engine's input (see {!Frozen}) *)
}

(* [entries] pairs each document with the snapshot it arrived with, if
   any (streamed documents); the others are frozen here *)
let build (entries : (Doc.t * Frozen.t option) list) : t =
  Xl_obs.Obs.span ~name:"store.index_build" (fun () ->
  let docs = List.map fst entries in
  let univ = List.concat_map Doc.nodes docs in
  let by_id = Hashtbl.create 4096 in
  List.iter
    (fun d ->
      Hashtbl.replace by_id d.Doc.doc_node.Node.id d.Doc.doc_node;
      List.iter
        (fun n -> Hashtbl.replace by_id n.Node.id n)
        (Doc.all_nodes d))
    docs;
  (* value index: same construction (and hence same bucket order) as the
     data graph historically used, so learner behaviour is unchanged *)
  let by_value = Hashtbl.create 4096 in
  List.iter
    (fun n ->
      match Node.direct_value n with
      | Some v when v <> "" ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_value v) in
        Hashtbl.replace by_value v (n :: cur)
      | _ -> ())
    univ;
  let frozen =
    List.map
      (fun (d, fz) -> match fz with Some fz -> fz | None -> Frozen.freeze d)
      entries
  in
  { docs; univ; by_id; by_value; frozen })

let of_docs docs = build (List.map (fun d -> (d, None)) docs)

let of_frozen frozen = build (List.map (fun fz -> (Frozen.doc fz, Some fz)) frozen)

let default t =
  match t.docs with
  | d :: _ -> d
  | [] -> invalid_arg "Store.default: empty store"

let find t uri =
  match List.find_opt (fun d -> String.equal (Doc.uri d) uri) t.docs with
  | Some d -> Some d
  | None ->
    (* tolerate "file:///..." or path prefixes around the registered name *)
    List.find_opt
      (fun d -> Filename.basename (Doc.uri d) = Filename.basename uri)
      t.docs

let find_exn t uri =
  match find t uri with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Store.find_exn: no document %S" uri)

let docs t = t.docs

let prepare (_ : t) = ()

(** Every element/attribute node of every document, document order within
    each document, documents in registration order. *)
let nodes t = t.univ

let find_node_by_id t id = Hashtbl.find_opt t.by_id id

(** Value-bearing nodes whose direct value is [v] — the v-equality
    neighbours of the data graph. *)
let with_value t v = Option.value ~default:[] (Hashtbl.find_opt t.by_value v)

(** The raw value index, shared with the data graph.  Treat as read-only. *)
let value_index t = t.by_value

(** The frozen snapshot of every document, registration order. *)
let frozen_docs t = t.frozen

(** The snapshot and position of a store-resident node.  [None] for
    nodes outside the store (e.g. constructed elements), which must take
    the pointer-walking paths. *)
let frozen_of_node t (n : Node.t) : (Frozen.t * int) option =
  List.find_map
    (fun fz ->
      match Frozen.pos_of_node fz n with
      | Some p -> Some (fz, p)
      | None -> None)
    t.frozen
