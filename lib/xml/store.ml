(** Document store.

    Resolves the [document("uri")] function of the query engine and gives
    the learner a single universe of nodes spanning several documents
    (XMP scenarios join [bib.xml] with [reviews.xml]).

    The store carries persistent indexes built lazily, once per
    registration epoch: the flattened element/attribute node universe, an
    id->node table, a value index and the frozen array snapshots.  The value
    index is shared with {!Xl_core.Data_graph} so building the data graph
    does not re-scan every document.  Registering a new document bumps
    [generation] and drops the indexes; readers rebuild on demand, so a
    store that is filled once and then only queried — the learner's usage
    pattern — indexes exactly once. *)

type index = {
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

type t = {
  mutable docs_rev : (string * Doc.t) list;  (** reverse registration order *)
  mutable docs_fwd : (string * Doc.t) list option;  (** cached forward order *)
  mutable default : Doc.t option;
  mutable generation : int;  (** bumped on every [add] *)
  mutable index : index option;  (** built lazily, dropped on [add] *)
  mutable strict : bool;
      (** raise instead of lazily building when an index is demanded —
          catches a missing [prepare] before a multi-domain fan-out *)
  mutable prefrozen : (int * Frozen.t) list;
      (** doc-node id -> snapshot supplied at registration (streaming
          builder or snapshot loader output); [build_index] reuses these
          instead of re-freezing.  Keyed by document identity, not epoch:
          a snapshot stays valid as long as its document is registered,
          while the generation bump on [add] still invalidates every
          derived index as before. *)
}

let create () =
  {
    docs_rev = [];
    docs_fwd = None;
    default = None;
    generation = 0;
    index = None;
    strict = false;
    prefrozen = [];
  }

(** [add ?default store doc] registers [doc] under its URI.  The first
    document added becomes the default (the target of paths that start at
    the plain document root), unless overridden with [~default:true]. *)
let add ?(default = false) t doc =
  t.docs_rev <- (Doc.uri doc, doc) :: t.docs_rev;
  t.docs_fwd <- None;
  t.index <- None;
  t.generation <- t.generation + 1;
  if default || t.default = None then t.default <- Some doc

(** [add_frozen ?default store fz] registers [fz]'s document together
    with its already-built snapshot, so the next index build reuses the
    snapshot instead of re-freezing the tree.  This is how streamed
    ({!Frozen_builder}) and loaded ({!Snapshot}) documents enter the
    store without paying a second O(n) walk.  Invalidation is unchanged:
    the registration bumps [generation] and drops the current indexes. *)
let add_frozen ?default t (fz : Frozen.t) =
  let doc = Frozen.doc fz in
  t.prefrozen <- (doc.Doc.doc_node.Node.id, fz) :: t.prefrozen;
  add ?default t doc

let of_docs docs =
  let t = create () in
  List.iter (fun d -> add t d) docs;
  t

let of_frozen frozen =
  let t = create () in
  List.iter (fun fz -> add_frozen t fz) frozen;
  t

let generation t = t.generation

let default t =
  match t.default with
  | Some d -> d
  | None -> invalid_arg "Store.default: empty store"

let assoc_docs t =
  match t.docs_fwd with
  | Some l -> l
  | None ->
    let l = List.rev t.docs_rev in
    t.docs_fwd <- Some l;
    l

let find t uri =
  let docs = assoc_docs t in
  match List.assoc_opt uri docs with
  | Some d -> Some d
  | None ->
    (* tolerate "file:///..." or path prefixes around the registered name *)
    List.find_map
      (fun (u, d) ->
        if Filename.basename u = Filename.basename uri then Some d else None)
      docs

let find_exn t uri =
  match find t uri with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Store.find_exn: no document %S" uri)

let docs t = List.map snd (assoc_docs t)

let build_index t : index =
  Xl_obs.Obs.span ~name:"store.index_build" (fun () ->
  let univ = List.concat_map Doc.nodes (docs t) in
  let by_id = Hashtbl.create 4096 in
  List.iter
    (fun d ->
      Hashtbl.replace by_id d.Doc.doc_node.Node.id d.Doc.doc_node;
      List.iter
        (fun n -> Hashtbl.replace by_id n.Node.id n)
        (Doc.all_nodes d))
    (docs t);
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
      (fun d ->
        match List.assoc_opt d.Doc.doc_node.Node.id t.prefrozen with
        | Some fz -> fz
        | None -> Frozen.freeze d)
      (docs t)
  in
  { univ; by_id; by_value; frozen })

let index t =
  match t.index with
  | Some ix -> ix
  | None ->
    if t.strict then
      failwith
        "Store: index requested before Store.prepare (strict mode): a lazy \
         build here would race if the store is already shared between \
         domains — call Store.prepare first";
    let ix = build_index t in
    t.index <- Some ix;
    ix

(** Force the forward document list and the indexes now.  A store shared
    by several domains must be prepared before the fan-out: the lazy
    caches are filled by plain mutation, so the first access must happen
    while only one domain can see the store.  After [prepare] (and until
    the next [add]) every reader is a pure lookup. *)
let prepare t =
  ignore (assoc_docs t);
  match t.index with
  | Some _ -> ()
  | None -> t.index <- Some (build_index t)

let index_built t = t.index <> None

(** In strict mode an index demand on an unbuilt index fails loudly
    instead of silently falling back to an on-demand build (which is a
    data race once the store is shared between domains, and an
    easy-to-miss rebuild after an [add] dropped the prepared index).
    [prepare] still builds; [add] leaves strictness on, so the next
    reader after a forgotten re-[prepare] raises. *)
let set_strict t flag = t.strict <- flag

(** Every element/attribute node of every document, document order within
    each document, documents in registration order. *)
let nodes t = (index t).univ

let find_node_by_id t id = Hashtbl.find_opt (index t).by_id id

(** Value-bearing nodes whose direct value is [v] — the v-equality
    neighbours of the data graph. *)
let with_value t v =
  Option.value ~default:[] (Hashtbl.find_opt (index t).by_value v)

(** The raw value index, shared with the data graph.  Treat as read-only:
    it lives until the next [add]. *)
let value_index t = (index t).by_value

(** The frozen snapshot of every document, registration order. *)
let frozen_docs t = (index t).frozen

(** The snapshot and position of a store-resident node.  [None] for
    nodes outside the store (e.g. constructed elements), which must take
    the pointer-walking paths. *)
let frozen_of_node t (n : Node.t) : (Frozen.t * int) option =
  List.find_map
    (fun fz ->
      match Frozen.pos_of_node fz n with
      | Some p -> Some (fz, p)
      | None -> None)
    (index t).frozen
