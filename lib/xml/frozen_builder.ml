(** Streaming construction of frozen documents.

    The builder appends preorder rows — node, interned symbol, parent
    position, subtree end patched on close — while the document is being
    parsed (or a fragment walked), so ingestion is one pass: no
    intermediate [Frag.t], no separate {!Frozen.freeze} re-walk.  The
    {!Node.t} records themselves are still built (they are part of
    {!Frozen.t} and the pointer-walking evaluator paths need them), but
    each node is allocated exactly once, in its final preorder slot.

    Equivalence contract: for any event stream, [finish] yields a
    {!Doc.t} whose tree equals [Doc.of_frag] of the corresponding
    fragment (same kinds, names, values, ranks and ordinals, same
    attributes-before-children order) and a {!Frozen.t} that is
    {!Frozen.structural_equal} to [Frozen.freeze] of that document.
    The parity suite in [test_perf_parity.ml] enforces this over the
    fuzz corpus and the Figure-16 stores. *)

type frame = {
  f_node : Node.t;  (** the open element *)
  f_pos : int;  (** its preorder position, = its rank *)
  mutable f_k : int;  (** shared attribute/child ordinal, as in Doc.of_frag *)
  mutable f_rev_children : Node.t list;
}

type t = {
  uri : string;
  doc_node : Node.t;
  mutable stack : frame list;
  (* growable parallel arrays, doubled on demand *)
  mutable nodes : Node.t array;
  mutable sym : int array;
  mutable parent : int array;
  mutable sub_end : int array;
  mutable len : int;
  (* per-document symbol interning, first-appearance (= preorder) order *)
  sym_ids : (string, int) Hashtbl.t;
  mutable rev_symbols : string list;
  mutable sym_count : int;
  mutable root : Node.t option;
  mutable finished : bool;
}

let intern b s =
  match Hashtbl.find_opt b.sym_ids s with
  | Some i -> i
  | None ->
    let i = b.sym_count in
    b.sym_count <- i + 1;
    Hashtbl.replace b.sym_ids s i;
    b.rev_symbols <- s :: b.rev_symbols;
    i

let grow b =
  let cap = Array.length b.sym in
  let cap' = 2 * cap in
  let copy mk a =
    let a' = mk cap' in
    Array.blit a 0 a' 0 cap;
    a'
  in
  b.nodes <- copy (fun c -> Array.make c b.doc_node) b.nodes;
  b.sym <- copy (fun c -> Array.make c 0) b.sym;
  b.parent <- copy (fun c -> Array.make c (-1)) b.parent;
  b.sub_end <- copy (fun c -> Array.make c 0) b.sub_end

(* append one preorder row for a fresh node ranked by its position;
   [sub_end] starts as a placeholder and is set when the node's subtree
   is known (immediately for leaves, on close for elements, at [finish]
   for the document node) *)
let append b ~ordinal kind name value sym_id parent_pos : Node.t * int =
  if b.len = Array.length b.sym then grow b;
  let p = b.len in
  let node = Doc.make_node ~rank:p ~ordinal kind name value in
  b.len <- p + 1;
  b.nodes.(p) <- node;
  b.sym.(p) <- sym_id;
  b.parent.(p) <- parent_pos;
  (node, p)

let create ?(uri = "doc.xml") ?(hint = 1024) () : t =
  let doc_node = Doc.make_node ~rank:0 ~ordinal:0 Node.Document "" "" in
  let cap = max 16 hint in
  let b =
    {
      uri;
      doc_node;
      stack = [];
      nodes = Array.make cap doc_node;
      sym = Array.make cap 0;
      parent = Array.make cap (-1);
      sub_end = Array.make cap 0;
      len = 1;
      sym_ids = Hashtbl.create 64;
      rev_symbols = [];
      sym_count = 0;
      root = None;
      finished = false;
    }
  in
  (* row 0 is the document node: its parent (-1) is already in place *)
  b.sym.(0) <- intern b "#doc";
  b

let check_open b what =
  if b.finished then
    invalid_arg (Printf.sprintf "Frozen_builder.%s: builder already finished" what)

let open_element b tag attrs =
  check_open b "open_element";
  let parent_node, parent_pos, ordinal =
    match b.stack with
    | [] ->
      if b.root <> None then
        invalid_arg "Frozen_builder.open_element: second root element";
      (b.doc_node, 0, 1)
    | fr :: _ ->
      fr.f_k <- fr.f_k + 1;
      (fr.f_node, fr.f_pos, fr.f_k)
  in
  let sym_id = intern b tag in
  let elem, pos = append b ~ordinal Node.Element tag "" sym_id parent_pos in
  elem.Node.parent <- Some parent_node;
  (match b.stack with
  | [] ->
    b.root <- Some elem;
    b.doc_node.Node.children <- [ elem ]
  | fr :: _ -> fr.f_rev_children <- elem :: fr.f_rev_children);
  (* attributes are numbered before children, from the same counter *)
  let attr_nodes =
    List.mapi
      (fun i (name, value) ->
        let sym_id = intern b ("@" ^ name) in
        let a, ap =
          append b ~ordinal:(i + 1) Node.Attribute name value sym_id pos
        in
        a.Node.parent <- Some elem;
        b.sub_end.(ap) <- ap + 1;
        a)
      attrs
  in
  elem.Node.attributes <- attr_nodes;
  b.stack <-
    { f_node = elem; f_pos = pos; f_k = List.length attrs; f_rev_children = [] }
    :: b.stack

let text b s =
  check_open b "text";
  match b.stack with
  | [] -> invalid_arg "Frozen_builder.text: text outside the root element"
  | fr :: _ ->
    fr.f_k <- fr.f_k + 1;
    let sym_id = intern b "#text" in
    let n, p = append b ~ordinal:fr.f_k Node.Text "" s sym_id fr.f_pos in
    n.Node.parent <- Some fr.f_node;
    b.sub_end.(p) <- p + 1;
    fr.f_rev_children <- n :: fr.f_rev_children

let close_element b =
  check_open b "close_element";
  match b.stack with
  | [] -> invalid_arg "Frozen_builder.close_element: no open element"
  | fr :: rest ->
    fr.f_node.Node.children <- List.rev fr.f_rev_children;
    b.sub_end.(fr.f_pos) <- b.len;
    b.stack <- rest

let event b : Xml_parser.event -> unit = function
  | Xml_parser.Start_element (tag, attrs) -> open_element b tag attrs
  | Xml_parser.Text s -> text b s
  | Xml_parser.End_element -> close_element b

let finish b : Doc.t * Frozen.t =
  check_open b "finish";
  if b.stack <> [] then
    invalid_arg "Frozen_builder.finish: unclosed elements";
  let root =
    match b.root with
    | Some r -> r
    | None -> invalid_arg "Frozen_builder.finish: document has no root element"
  in
  b.finished <- true;
  b.sub_end.(0) <- b.len;
  let trim a = Array.sub a 0 b.len in
  let doc = { Doc.uri = b.uri; doc_node = b.doc_node; root; node_count = b.len } in
  let fz =
    Frozen.of_arrays ~doc ~nodes:(trim b.nodes)
      ~symbols:(Array.of_list (List.rev b.rev_symbols))
      ~sym:(trim b.sym) ~parent:(trim b.parent) ~subtree_end:(trim b.sub_end)
  in
  (doc, fz)

let rec add_frag b = function
  | Frag.T s -> text b s
  | Frag.E (tag, attrs, kids) ->
    open_element b tag attrs;
    List.iter (add_frag b) kids;
    close_element b

(* exact row count of a fragment (elements + attributes + texts); an
   alloc-free pre-walk that right-sizes the arrays — without it the
   doubling copies eat the one-pass advantage on large documents *)
let rec count_rows = function
  | Frag.T _ -> 1
  | Frag.E (_, attrs, kids) ->
    List.fold_left (fun acc k -> acc + count_rows k) (1 + List.length attrs) kids

(** One-pass fragment ingestion: the [Doc.of_frag]-then-[Frozen.freeze]
    result without the second walk.  Note fragments are ingested as
    given — whitespace-only text dropping is the parser's job, exactly
    as on the tree path. *)
let of_frag ?uri ?hint (frag : Frag.t) : Doc.t * Frozen.t =
  (match frag with
  | Frag.E _ -> ()
  | Frag.T _ ->
    invalid_arg "Frozen_builder.of_frag: document root must be an element");
  let hint =
    match hint with Some h -> h | None -> 1 + count_rows frag
  in
  let b = create ?uri ~hint () in
  add_frag b frag;
  finish b

(** One-pass streaming ingestion: XML text straight to a frozen store
    snapshot, driven by {!Xml_parser.iter_events}. *)
let parse ?uri ?hint (src : string) : Doc.t * Frozen.t =
  Xl_obs.Obs.span ~name:"xml.stream_ingest" (fun () ->
      let hint =
        (* rough row estimate: the benchmark corpora average ~25 source
           bytes per node; halving over-allocation beats a late doubling *)
        match hint with Some h -> h | None -> max 64 (String.length src / 24)
      in
      let b = create ?uri ~hint () in
      Xml_parser.iter_events src (event b);
      finish b)
