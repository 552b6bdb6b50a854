(** A Relax NG (compact syntax) subset.

    The paper's prototype filters membership queries with Relax NG
    ("The current prototype uses the Relax NG for filtering", Section 8);
    this module provides that schema language next to DTDs.  Supported
    compact-syntax constructs:

    {v
    start = element-pattern
    name = pattern                          (definitions, non-recursive use is unrestricted)
    element name { p }   attribute name { text }
    text   empty
    p, p   p | p   p?   p*   p+   (p)
    v}

    Schemas convert losslessly (for path purposes) from DTDs, and compile
    to the same path-language DFA rule R1 consumes ({!to_dfa}). *)

type pattern =
  | Element of string * pattern
  | Attribute of string
  | Text
  | Empty
  | Seq of pattern * pattern
  | Choice of pattern * pattern
  | Opt of pattern
  | Star of pattern
  | Plus of pattern
  | Ref of string  (** reference to a named definition *)

type t = {
  start : pattern;
  defs : (string * pattern) list;
}

exception Parse_error of string * int

(* ---------------- compact syntax parser --------------------------------- *)

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (msg, st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | Some '#' ->
      (* comment to end of line *)
      while (match peek st with Some c when c <> '\n' -> true | _ -> false) do
        advance st
      done
    | _ -> continue := false
  done

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | _ -> false

let read_name st =
  skip_ws st;
  let start = st.pos in
  while (match peek st with Some c when is_name_char c -> true | _ -> false) do
    advance st
  done;
  if st.pos = start then error st "expected a name";
  String.sub st.src start (st.pos - start)

let expect st s =
  skip_ws st;
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st (Printf.sprintf "expected %S" s)

let eat st s =
  skip_ws st;
  if looking_at st s then begin
    st.pos <- st.pos + String.length s;
    true
  end
  else false

let at_keyword st kw =
  skip_ws st;
  looking_at st kw
  &&
  let after = st.pos + String.length kw in
  after >= String.length st.src || not (is_name_char st.src.[after])

(* pattern ::= choice
   choice  ::= seq (BAR seq)*
   seq     ::= postfix (COMMA postfix)*
   postfix ::= primary (QUEST | STAR | PLUS)?
   primary ::= element n { p } | attribute n { text } | text | empty
             | LPAREN p RPAREN | name-ref *)
let rec parse_pattern st : pattern =
  let a = parse_seq st in
  if eat st "|" then Choice (a, parse_pattern st) else a

and parse_seq st : pattern =
  let a = parse_postfix st in
  if eat st "," then Seq (a, parse_seq st) else a

and parse_postfix st : pattern =
  let p = parse_primary st in
  if eat st "?" then Opt p
  else if eat st "*" then Star p
  else if eat st "+" then Plus p
  else p

and parse_primary st : pattern =
  skip_ws st;
  if at_keyword st "element" then begin
    expect st "element";
    let name = read_name st in
    expect st "{";
    let body = parse_pattern st in
    expect st "}";
    Element (name, body)
  end
  else if at_keyword st "attribute" then begin
    expect st "attribute";
    let name = read_name st in
    expect st "{";
    expect st "text";
    expect st "}";
    Attribute name
  end
  else if at_keyword st "text" then begin
    expect st "text";
    Text
  end
  else if at_keyword st "empty" then begin
    expect st "empty";
    Empty
  end
  else if eat st "(" then begin
    let p = parse_pattern st in
    expect st ")";
    p
  end
  else Ref (read_name st)

(** Parse a compact-syntax schema ([start = ...] plus definitions). *)
let parse (src : string) : t =
  let st = { src; pos = 0 } in
  let defs = ref [] in
  let start = ref None in
  let continue = ref true in
  while !continue do
    skip_ws st;
    if st.pos >= String.length st.src then continue := false
    else begin
      let name = read_name st in
      expect st "=";
      let p = parse_pattern st in
      if String.equal name "start" then start := Some p
      else defs := (name, p) :: !defs
    end
  done;
  match !start with
  | Some s -> { start = s; defs = List.rev !defs }
  | None -> error st "missing start pattern"

(* ---------------- path language ----------------------------------------- *)

let resolve (t : t) (name : string) : pattern =
  match List.assoc_opt name t.defs with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Relaxng: undefined pattern %S" name)

(* element/attribute/text facts directly inside a pattern (not crossing
   element boundaries), with reference chasing bounded by a fuel *)
let rec surface (t : t) fuel (p : pattern) :
    (string * pattern) list * string list * bool =
  if fuel = 0 then ([], [], false)
  else
    match p with
    | Element (n, body) -> ([ (n, body) ], [], false)
    | Attribute a -> ([], [ a ], false)
    | Text -> ([], [], true)
    | Empty -> ([], [], false)
    | Seq (a, b) | Choice (a, b) ->
      let ea, aa, ta = surface t fuel a in
      let eb, ab, tb = surface t fuel b in
      (ea @ eb, aa @ ab, ta || tb)
    | Opt a | Star a | Plus a -> surface t fuel a
    | Ref name -> surface t (fuel - 1) (resolve t name)

(** Does the schema admit a node with the given tag path?  The same
    contract as {!Schema_paths.admits}, so rule R1 can use either schema
    language. *)
let admits (t : t) (path : string list) : bool =
  let rec walk (body : pattern) (rest : string list) : bool =
    match rest with
    | [] -> true
    | sym :: rest' ->
      let elements, attributes, text = surface t 16 body in
      if String.length sym > 0 && sym.[0] = '@' then
        rest' = [] && List.mem (String.sub sym 1 (String.length sym - 1)) attributes
      else if String.equal sym "#text" then rest' = [] && text
      else
        List.exists
          (fun (n, b) -> String.equal n sym && walk b rest')
          elements
  in
  match path with
  | [] -> false
  | root :: rest ->
    let elements, _, _ = surface t 16 t.start in
    List.exists (fun (n, b) -> String.equal n root && walk b rest) elements

(** The path language as a DFA over [alphabet]: an NFA whose states are
    the initial state, a leaf for attribute and text steps, and one
    state per element body that {!surface} reaches, determinized by
    subset construction.  Symbols outside [alphabet] get no transition. *)
let to_dfa (t : t) (alphabet : Xl_automata.Alphabet.t) : Xl_automata.Dfa.t =
  let open Xl_automata in
  let leaf = 1 in
  let ids = Hashtbl.create 64 in  (* element body -> state, from 2 *)
  let edges = ref [] in
  let edge q sym q' =
    match Alphabet.find alphabet sym with
    | Some a -> edges := (q, a, q') :: !edges
    | None -> ()
  in
  let rec visit q body ~root =
    let elements, attributes, text = surface t 16 body in
    List.iter
      (fun (n, b) ->
        let q' =
          match Hashtbl.find_opt ids b with
          | Some q' -> q'
          | None ->
            let q' = Hashtbl.length ids + 2 in
            Hashtbl.replace ids b q';
            visit q' b ~root:false;
            q'
        in
        edge q n q')
      elements;
    (* only elements may start a path *)
    if not root then begin
      List.iter (fun a -> edge q ("@" ^ a) leaf) attributes;
      if text then edge q "#text" leaf
    end
  in
  visit 0 t.start ~root:true;
  let states = Hashtbl.length ids + 2 in
  let nfa =
    Nfa.create ~alphabet_size:(Alphabet.size alphabet) ~states ~start:0
      ~finals:(List.init (states - 1) (fun i -> i + 1))
  in
  List.iter (fun (q, a, q') -> Nfa.add_transition nfa q a q') !edges;
  Nfa.to_dfa nfa

(* ---------------- DTD conversion ----------------------------------------- *)

let rec pattern_of_particle (p : Content_model.particle) : pattern =
  match p with
  | Content_model.Name n -> Ref n
  | Content_model.Seq ps -> (
    match List.map pattern_of_particle ps with
    | [] -> Empty
    | [ one ] -> one
    | first :: rest -> List.fold_left (fun a b -> Seq (a, b)) first rest)
  | Content_model.Choice ps -> (
    match List.map pattern_of_particle ps with
    | [] -> Empty
    | [ one ] -> one
    | first :: rest -> List.fold_left (fun a b -> Choice (a, b)) first rest)
  | Content_model.Opt p -> Opt (pattern_of_particle p)
  | Content_model.Star p -> Star (pattern_of_particle p)
  | Content_model.Plus p -> Plus (pattern_of_particle p)

let pattern_of_content (c : Content_model.t) : pattern =
  match c with
  | Content_model.Empty -> Empty
  | Content_model.Any -> Text  (* approximation: ANY admits text *)
  | Content_model.Mixed [] -> Text
  | Content_model.Mixed names ->
    Star (List.fold_left (fun a n -> Choice (a, Ref n)) Text names)
  | Content_model.Children p -> pattern_of_particle p

(** Convert a DTD: one named definition per element type, references for
    child elements — the path language is preserved exactly.  A name a
    content model references without declaring it, and an undeclared
    root, become empty elements: the step is admitted, nothing below. *)
let of_dtd (dtd : Dtd.t) : t =
  let def_of name =
    match Dtd.find dtd name with
    | None -> (name, Element (name, Empty))
    | Some el ->
      let atts =
        List.map (fun a -> Attribute a.Dtd.att_name) el.Dtd.atts
      in
      let body = pattern_of_content el.Dtd.content in
      let full = List.fold_left (fun acc a -> Seq (a, acc)) body atts in
      (name, Element (name, full))
  in
  {
    start = Ref (Dtd.root dtd);
    defs = List.map def_of (Dtd.element_names dtd @ Dtd.undeclared_names dtd);
  }

(* ---------------- printing ------------------------------------------------ *)

let rec pattern_to_string (p : pattern) : string =
  match p with
  | Element (n, b) -> Printf.sprintf "element %s { %s }" n (pattern_to_string b)
  | Attribute a -> Printf.sprintf "attribute %s { text }" a
  | Text -> "text"
  | Empty -> "empty"
  | Seq (a, b) -> Printf.sprintf "%s, %s" (atomic a) (atomic b)
  | Choice (a, b) -> Printf.sprintf "%s | %s" (atomic a) (atomic b)
  | Opt a -> atomic a ^ "?"
  | Star a -> atomic a ^ "*"
  | Plus a -> atomic a ^ "+"
  | Ref n -> n

and atomic p =
  match p with
  | Seq _ | Choice _ -> "(" ^ pattern_to_string p ^ ")"
  | _ -> pattern_to_string p

let to_string (t : t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b ("start = " ^ pattern_to_string t.start ^ "\n");
  List.iter
    (fun (name, p) ->
      Buffer.add_string b (Printf.sprintf "%s = %s\n" name (pattern_to_string p)))
    t.defs;
  Buffer.contents b
