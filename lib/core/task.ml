(** Learning tasks.

    One task per Drop Box that receives an example.  Normally a task is
    one XQ-Tree variable node; when a variable node has a 1-labeled child
    that also carries a variable, the pair is *collapsed* (Section 5,
    LEARN-X0*+): the drop lands in the child's box, the composed path is
    learned as one language, and the result is split back into the two
    fragments afterwards.  In the paper's running example the three tasks
    are cname (collapsing category), iname (collapsing item) and desc —
    matching the three drag-and-drops of Section 2. *)

open Xl_xqtree

type t = {
  node : Xqtree.node;  (** the node whose Drop Box receives the example *)
  parent : Xqtree.node option;  (** the collapse parent, if any *)
}

let label (t : t) = t.node.Xqtree.label
let var (t : t) = Option.get t.node.Xqtree.var
let parent_var (t : t) = Option.map (fun p -> Option.get p.Xqtree.var) t.parent
let anchor (t : t) = Option.value ~default:t.node t.parent

(** The node the task's composed path starts from under [context] (in
    [tree], the tree the task is of): the document of an absolute anchor
    source, else the binding of the anchor's base variable, else the
    default document.  [None] when [context] does not bind that
    variable. *)
let base (tree : Xqtree.t) (store : Xl_xml.Store.t) (t : t)
    (context : (string * Xl_xml.Node.t) list) : Xl_xml.Node.t option =
  let anchor = anchor t in
  match anchor.Xqtree.source with
  | Some (Xqtree.Abs (uri, _)) ->
    let doc =
      match uri with
      | None -> Xl_xml.Store.default store
      | Some u -> Xl_xml.Store.find_exn store u
    in
    Some doc.Xl_xml.Doc.doc_node
  | _ -> (
    match Xqtree.base_var tree anchor.Xqtree.label with
    | Some v -> List.assoc_opt v context
    | None -> Some (Xl_xml.Store.default store).Xl_xml.Doc.doc_node)

(** All tasks of a tree, in the depth-first learning order. *)
let tasks_of (tree : Xqtree.t) : t list =
  List.filter_map
    (fun (n : Xqtree.node) ->
      if n.Xqtree.var = None then None
      else if Xqtree.is_collapse_parent tree n then None  (* handled by the child *)
      else Some { node = n; parent = Xqtree.collapse_parent tree n.Xqtree.label })
    (Xqtree.nodes tree)

(** The composed source path of the task (parent source · child source
    for a collapse pair), as known to the oracle. *)
let composed_source (t : t) : Xqtree.source option =
  match t.parent with
  | None -> t.node.Xqtree.source
  | Some p -> (
    match p.Xqtree.source, t.node.Xqtree.source with
    | Some (Xqtree.Abs (uri, pp)), Some (Xqtree.Rel cp) ->
      Some (Xqtree.Abs (uri, Xl_xquery.Path_expr.Seq (pp, cp)))
    | Some (Xqtree.Rel pp), Some (Xqtree.Rel cp) ->
      Some (Xqtree.Rel (Xl_xquery.Path_expr.Seq (pp, cp)))
    | _ -> None)

(** Steps from a candidate node of the composed language up to the
    parent-variable binding (the child's source length). *)
let child_steps (t : t) : int =
  match t.parent, t.node.Xqtree.source with
  | None, _ -> 0
  | Some _, Some (Xqtree.Rel p) -> Option.value ~default:1 (Xqtree.path_steps p)
  | Some _, _ -> 1

(** Target-side conditions of the whole task (parent's and child's). *)
let conds (t : t) : Cond.t list =
  (match t.parent with Some p -> p.Xqtree.conds | None -> [])
  @ t.node.Xqtree.conds

let order_by (t : t) =
  (match t.parent with Some p -> p.Xqtree.order_by | None -> [])
  @ t.node.Xqtree.order_by

(** Variable bindings for a candidate node of the composed language. *)
let bindings_of (t : t) (n : Xl_xml.Node.t) : (string * Xl_xml.Node.t) list =
  let own = [ (var t, n) ] in
  match t.parent with
  | None -> own
  | Some p -> (
    match Extent.ancestor_at n (child_steps t) with
    | Some up -> (Option.get p.Xqtree.var, up) :: own
    | None -> own)
