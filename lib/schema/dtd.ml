(** DTD model: element declarations with content models and attribute
    lists.  This is both the source-schema input of rule R1 and the
    target-schema input of the template generator. *)

type att_type =
  | Cdata
  | Id
  | Idref
  | Idrefs
  | Enum of string list

type att_default =
  | Required
  | Implied
  | Default of string
  | Fixed of string

type attribute = { att_name : string; att_type : att_type; att_default : att_default }

type element = {
  el_name : string;
  content : Content_model.t;
  atts : attribute list;
}

type t = {
  root : string;
  elements : (string, element) Hashtbl.t;
  order : string list;  (** declaration order, for printing *)
}

let create ~root = { root; elements = Hashtbl.create 64; order = [] }

let add_element t ?(atts = []) name content =
  let el = { el_name = name; content; atts } in
  if not (Hashtbl.mem t.elements name) then
    Hashtbl.replace t.elements name el
  else Hashtbl.replace t.elements name el;
  { t with order = (if List.mem name t.order then t.order else t.order @ [ name ]) }

(** Build a DTD from a declaration list: [(name, content, attributes)]. *)
let of_list ~root decls =
  List.fold_left
    (fun t (name, content, atts) -> add_element t ~atts name content)
    (create ~root) decls

let find t name = Hashtbl.find_opt t.elements name
let root t = t.root
let element_names t = t.order

(** Attribute names declared anywhere, as ["@name"] path symbols. *)
let attribute_symbols t =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun name ->
      match find t name with
      | None -> []
      | Some el ->
        List.filter_map
          (fun a ->
            let s = "@" ^ a.att_name in
            if Hashtbl.mem seen s then None
            else begin
              Hashtbl.replace seen s ();
              Some s
            end)
          el.atts)
    t.order

(** All path symbols of the schema: element names, attribute symbols and
    ["#text"].  This is the alphabet the path learner works over —
    "k corresponds to the number of XML element types" (Section 8). *)
let path_symbols t = element_names t @ attribute_symbols t @ [ "#text" ]

let attributes_of t name =
  match find t name with None -> [] | Some el -> el.atts

let children_of t name =
  match find t name with
  | None -> []
  | Some el -> Content_model.child_names el.content

(** Element names a path can reach that no declaration defines: an
    undeclared root and names content models reference without
    declaring them.  Sorted. *)
let undeclared_names t =
  root t :: List.concat_map (children_of t) (element_names t)
  |> List.filter (fun name -> find t name = None)
  |> List.sort_uniq String.compare

(** Is [child] guaranteed to occur exactly once in each [parent]?  Drives
    the "1" edge labels of templates (Section 4.1). *)
let one_to_one t ~parent ~child =
  match find t parent with
  | None -> false
  | Some el -> Content_model.occurs_exactly_once el.content child

let to_string t =
  let b = Buffer.create 256 in
  List.iter
    (fun name ->
      match find t name with
      | None -> ()
      | Some el ->
        Buffer.add_string b
          (Printf.sprintf "<!ELEMENT %s %s>\n" name (Content_model.to_string el.content));
        if el.atts <> [] then begin
          Buffer.add_string b (Printf.sprintf "<!ATTLIST %s" name);
          List.iter
            (fun a ->
              let ty =
                match a.att_type with
                | Cdata -> "CDATA"
                | Id -> "ID"
                | Idref -> "IDREF"
                | Idrefs -> "IDREFS"
                | Enum vs -> "(" ^ String.concat "|" vs ^ ")"
              in
              let df =
                match a.att_default with
                | Required -> "#REQUIRED"
                | Implied -> "#IMPLIED"
                | Default v -> Printf.sprintf "%S" v
                | Fixed v -> Printf.sprintf "#FIXED %S" v
              in
              Buffer.add_string b (Printf.sprintf "\n  %s %s %s" a.att_name ty df))
            el.atts;
          Buffer.add_string b ">\n"
        end)
    t.order;
  Buffer.contents b
