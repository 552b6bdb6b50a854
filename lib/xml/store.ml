(** Document store.

    Resolves the [document("uri")] function of the query engine and gives
    the learner a single universe of nodes spanning several documents
    (XMP scenarios join [bib.xml] with [reviews.xml]).

    A store is complete when its constructor returns: the value index is
    built once, up front, and nothing changes it afterwards.  It is
    shared with {!Xl_core.Data_graph} so building the data graph does not
    re-scan every document. *)

type t = {
  docs : Doc.t list;  (** registration order *)
  by_value : (string, Node.t list) Hashtbl.t;
      (** direct value -> value-bearing nodes (v-equality neighbours) *)
}

let of_docs (docs : Doc.t list) : t =
  Xl_obs.Obs.span ~name:"store.index_build" (fun () ->
  (* value index over the element/attribute nodes, document order within
     each document, documents in registration order: same construction
     (and hence same bucket order) as the data graph historically used,
     so learner behaviour is unchanged *)
  let by_value = Hashtbl.create 4096 in
  List.iter
    (fun (d : Doc.t) ->
      Array.iter
        (fun (n : Node.t) ->
          match n.Node.kind, Node.direct_value n with
          | (Node.Element | Node.Attribute), Some v when v <> "" ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt by_value v) in
            Hashtbl.replace by_value v (n :: cur)
          | _ -> ())
        d.Doc.nodes)
    docs;
  { docs; by_value })

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

(** The raw value index, shared with the data graph.  Treat as read-only. *)
let value_index t = t.by_value

(** The document and position of a store-resident node.  [None] for
    nodes outside the store (e.g. constructed elements), which must take
    the pointer-walking paths. *)
let locate t (n : Node.t) : (Doc.t * int) option =
  List.find_map
    (fun d -> Option.map (fun p -> (d, p)) (Doc.pos_of_node d n))
    t.docs
