(** The data graph (Section 7.2): the node trees of all documents plus
    v-equality edges between nodes carrying the same value.

    V-equality edges are kept as a value index rather than materialized
    edges — "keeping all of the v-equality edges among nodes requires a
    large amount of additional data", so the index realizes the paper's
    space heuristic.  Value-bearing nodes are attributes and elements
    with directly attached text. *)

open Xl_xml

type t = {
  store : Store.t;
  by_value : (string, Node.t list) Hashtbl.t;
  reach_cache : (int, (Xl_xquery.Simple_path.t * string * Node.t) list) Hashtbl.t;
  doc_uri_cache : (int, string option) Hashtbl.t;
      (** root node id -> document uri; relay enumeration asks for the
          owning document of every candidate in a nested loop, and the
          answer is fixed per tree root for the store's lifetime *)
  max_depth : int;
}

let node_value = Node.direct_value

let build ?(max_depth = 3) (store : Store.t) : t =
  Xl_obs.Obs.span ~name:"data_graph.build" (fun () ->
      (* the value index lives on the store now: shared with the query
         evaluator's hash joins and built at most once per store epoch *)
      let by_value = Store.value_index store in
      let doc_uri_cache = Hashtbl.create 8 in
      (* fill the root->uri map for every document up front: lookups then
         never write, so candidate enumeration may read it from pool
         domains *)
      List.iter
        (fun d ->
          Hashtbl.replace doc_uri_cache (Doc.doc_node d).Node.id (Some (Doc.uri d));
          Hashtbl.replace doc_uri_cache (Doc.root d).Node.id (Some (Doc.uri d)))
        (Store.docs store);
      {
        store;
        by_value;
        reach_cache = Hashtbl.create 1024;
        doc_uri_cache;
        max_depth;
      })

(** Nodes sharing value [v] — the v-equality neighbours. *)
let with_value t v = Option.value ~default:[] (Hashtbl.find_opt t.by_value v)

(** Value-bearing nodes reachable from [n] by child-axis paths of bounded
    length, with the path and the value.  Includes [n] itself (empty
    path) when it is value-bearing. *)
let reachable_values (t : t) (n : Node.t) :
    (Xl_xquery.Simple_path.t * string * Node.t) list =
  match Hashtbl.find_opt t.reach_cache n.Node.id with
  | Some r -> r
  | None ->
    let out = ref [] in
    let rec go depth rev_path m =
      (match node_value m with
      | Some v when v <> "" -> out := (List.rev rev_path, v, m) :: !out
      | _ -> ());
      if depth < t.max_depth then begin
        List.iter
          (fun (a : Node.t) ->
            let step = Xl_xquery.Simple_path.Attr_step a.Node.name in
            out :=
              (List.rev (step :: rev_path), a.Node.value, a) :: !out)
          m.Node.attributes;
        List.iter
          (fun c ->
            if Node.is_element c then
              go (depth + 1)
                (Xl_xquery.Simple_path.Elem (c.Node.name, None) :: rev_path)
                c)
          m.Node.children
      end
    in
    go 0 [] n;
    let r = List.rev !out in
    Hashtbl.replace t.reach_cache n.Node.id r;
    r

(** Element ancestors of [n] within [k] levels (nearest first),
    candidates for relay nodes. *)
let ancestors_within (n : Node.t) (k : int) : Node.t list =
  let rec go acc m i =
    if i >= k then List.rev acc
    else
      match m.Node.parent with
      | Some p when Node.is_element p -> go (p :: acc) p (i + 1)
      | _ -> List.rev acc
  in
  go [] n 0

(** Child-axis simple path from ancestor [a] down to [d], if [d] is in
    [a]'s subtree. *)
let path_between (a : Node.t) (d : Node.t) : Xl_xquery.Simple_path.t option =
  let rec up acc m =
    if Node.equal m a then Some acc
    else
      match m.Node.parent with
      | None -> None
      | Some p ->
        let step =
          match m.Node.kind with
          | Node.Attribute -> Xl_xquery.Simple_path.Attr_step m.Node.name
          | Node.Text -> Xl_xquery.Simple_path.Text_step
          | _ -> Xl_xquery.Simple_path.Elem (m.Node.name, None)
        in
        up (step :: acc) p
  in
  up [] d

(** Doc-rooted regular path selecting all nodes with [n]'s tag path —
    the generalization used when a concrete node (e.g. a relay) must be
    described as a path expression. *)
let generalized_path (n : Node.t) : Xl_xquery.Path_expr.t =
  Xl_xquery.Path_expr.seq
    (List.map
       (fun sym ->
         if String.length sym > 0 && sym.[0] = '@' then
           Xl_xquery.Path_expr.child
             (Xl_xquery.Path_expr.Attr (String.sub sym 1 (String.length sym - 1)))
         else if String.equal sym "#text" then
           Xl_xquery.Path_expr.child Xl_xquery.Path_expr.Text_node
         else Xl_xquery.Path_expr.child (Xl_xquery.Path_expr.Tag sym))
       (Node.tag_path n))

(** Which document a node belongs to (for [document()] in relay paths). *)
let doc_uri_of (t : t) (n : Node.t) : string option =
  let root = Node.root n in
  match Hashtbl.find_opt t.doc_uri_cache root.Node.id with
  | Some r -> r
  | None ->
    (* every store-resident node hits the prebuilt map; an outside node
       is answered without caching — [doc_uri_of] may be called from
       pool domains, so the table must stay read-only after [build] *)
    List.find_map
      (fun d ->
        if Node.equal (Doc.doc_node d) root || Node.equal (Doc.root d) root then
          Some (Doc.uri d)
        else None)
      (Store.docs t.store)

let density (t : t) : float =
  let nodes =
    List.fold_left (fun acc d -> acc + List.length (Doc.nodes d)) 0 (Store.docs t.store)
  in
  let edges =
    Hashtbl.fold
      (fun _ ns acc ->
        let k = List.length ns in
        acc + (k * (k - 1) / 2))
      t.by_value 0
  in
  if nodes = 0 then 0. else float_of_int edges /. float_of_int nodes
