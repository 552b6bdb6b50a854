(** A small XML 1.0 parser with a streaming (SAX-style) event core.

    Supports elements, attributes (single or double quoted), character
    data, CDATA sections, comments, processing instructions, an optional
    XML declaration and an optional DOCTYPE (skipped; DTDs are parsed by
    [Xl_schema.Dtd_parser]).  Predefined and numeric character entities
    are decoded.  Whitespace-only text between elements is dropped, which
    matches how the paper's data sets are used.

    The lexer drives a flat event loop ({!iter_events}); {!parse_doc}
    feeds those events to the {!Doc} builder, so a document is built in
    the same single pass that lexes it. *)

type location = { offset : int; line : int; col : int }

exception Parse_error of string * location

type state = { src : string; mutable pos : int }

(* line/column are derived lazily, only when an error is raised: the hot
   per-character loops stay branch-free.  Both are 1-based; [col] counts
   bytes since the last newline (multi-byte UTF-8 sequences count per
   byte, like most compilers' column numbers). *)
let location_of src offset =
  let offset = min offset (String.length src) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { offset; line = !line; col = offset - !bol + 1 }

let error st msg = raise (Parse_error (msg, location_of st.src st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else error st (Printf.sprintf "expected %S" s)

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | _ -> false
  do
    advance st
  done

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let read_name st =
  let start = st.pos in
  while (match peek st with Some c when is_name_char c -> true | _ -> false) do
    advance st
  done;
  if st.pos = start then error st "expected a name";
  String.sub st.src start (st.pos - start)

let decode_entity st =
  (* called just after '&' *)
  let semi =
    try String.index_from st.src st.pos ';'
    with Not_found -> error st "unterminated entity"
  in
  let ent = String.sub st.src st.pos (semi - st.pos) in
  st.pos <- semi + 1;
  match ent with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ when String.length ent > 1 && ent.[0] = '#' ->
    let code =
      if ent.[1] = 'x' || ent.[1] = 'X' then
        int_of_string ("0x" ^ String.sub ent 2 (String.length ent - 2))
      else int_of_string (String.sub ent 1 (String.length ent - 1))
    in
    if code < 0x80 then String.make 1 (Char.chr code)
    else
      (* encode as UTF-8 *)
      let b = Buffer.create 4 in
      if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end;
      Buffer.contents b
  | _ -> error st (Printf.sprintf "unknown entity &%s;" ent)

let read_quoted st =
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) ->
      advance st;
      q
    | _ -> error st "expected quoted value"
  in
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated attribute value"
    | Some c when c = quote ->
      advance st;
      Buffer.contents b
    | Some '&' ->
      advance st;
      Buffer.add_string b (decode_entity st);
      loop ()
    | Some c ->
      advance st;
      Buffer.add_char b c;
      loop ()
  in
  loop ()

let skip_until st terminator =
  match
    let tlen = String.length terminator in
    let rec find i =
      if i + tlen > String.length st.src then None
      else if String.sub st.src i tlen = terminator then Some i
      else find (i + 1)
    in
    find st.pos
  with
  | Some i -> st.pos <- i + String.length terminator
  | None -> error st (Printf.sprintf "missing %S" terminator)

let rec skip_misc st =
  skip_ws st;
  if looking_at st "<?" then begin
    skip_until st "?>";
    skip_misc st
  end
  else if looking_at st "<!--" then begin
    skip_until st "-->";
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    (* skip to the matching '>' (handles an internal subset in brackets) *)
    let depth = ref 0 in
    let continue = ref true in
    while !continue do
      match peek st with
      | None -> error st "unterminated DOCTYPE"
      | Some '[' ->
        incr depth;
        advance st
      | Some ']' ->
        decr depth;
        advance st
      | Some '>' when !depth = 0 ->
        advance st;
        continue := false
      | Some _ -> advance st
    done;
    skip_misc st
  end

(* ---------------------------------------------------------------------- *)
(* SAX event core                                                          *)
(* ---------------------------------------------------------------------- *)

type event =
  | Start_element of string * (string * string) list
      (** tag, attributes in declaration order.  A self-closing element
          emits [Start_element] immediately followed by [End_element]. *)
  | Text of string
      (** one maximal run of character data (entities decoded) or one
          CDATA section; whitespace-only runs are dropped *)
  | End_element  (** closes the innermost open element *)

let is_ws_only s =
  String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

let rec parse_attributes st acc =
  skip_ws st;
  match peek st with
  | Some c when is_name_char c ->
    let name = read_name st in
    skip_ws st;
    expect st "=";
    skip_ws st;
    let value = read_quoted st in
    parse_attributes st ((name, value) :: acc)
  | _ -> acc

(* The open-tag lexeme: either pushes the tag (open) or emits the
   start/end pair itself (self-closing).  Returns the new tag stack. *)
let start_element st f stack =
  expect st "<";
  let tag = read_name st in
  let attrs = List.rev (parse_attributes st []) in
  if looking_at st "/>" then begin
    expect st "/>";
    f (Start_element (tag, attrs));
    f End_element;
    stack
  end
  else begin
    expect st ">";
    f (Start_element (tag, attrs));
    tag :: stack
  end

(* Emit the event stream of the document in [st] — prolog, exactly one
   root element, trailing misc.  The event loop is iterative (the only
   stack is the open-tag list), so document depth never stresses the
   OCaml call stack. *)
let run_events st (f : event -> unit) : unit =
  skip_misc st;
  if not (looking_at st "<") then error st "expected root element";
  let stack = ref (start_element st f []) in
  while !stack <> [] do
    if looking_at st "</" then begin
      st.pos <- st.pos + 2;
      let close = read_name st in
      (match !stack with
      | tag :: rest ->
        if not (String.equal close tag) then
          error st
            (Printf.sprintf "mismatched close tag </%s> for <%s>" close tag);
        skip_ws st;
        expect st ">";
        f End_element;
        stack := rest
      | [] -> assert false)
    end
    else if looking_at st "<!--" then skip_until st "-->"
    else if looking_at st "<![CDATA[" then begin
      st.pos <- st.pos + String.length "<![CDATA[";
      let start = st.pos in
      skip_until st "]]>";
      let data = String.sub st.src start (st.pos - start - 3) in
      if not (is_ws_only data) then f (Text data)
    end
    else if looking_at st "<?" then skip_until st "?>"
    else if looking_at st "<" then stack := start_element st f !stack
    else begin
      match peek st with
      | None -> error st "unterminated element content"
      | Some _ ->
        let b = Buffer.create 16 in
        let continue = ref true in
        while !continue do
          match peek st with
          | None | Some '<' -> continue := false
          | Some '&' ->
            advance st;
            Buffer.add_string b (decode_entity st)
          | Some c ->
            advance st;
            Buffer.add_char b c
        done;
        let data = Buffer.contents b in
        if not (is_ws_only data) then f (Text data)
    end
  done;
  skip_misc st;
  if st.pos <> String.length st.src then error st "content after the root element"

(** Stream the document's events through [f] without building any tree.
    Events are well-nested by construction: every [Start_element] is
    eventually matched by an [End_element], and [Text] only occurs
    between the root's start and end. *)
let iter_events (src : string) (f : event -> unit) : unit =
  run_events { src; pos = 0 } f

(* ---------------------------------------------------------------------- *)
(* Documents                                                              *)
(* ---------------------------------------------------------------------- *)

(** Parse a complete document straight into the {!Doc} builder, one
    pass: no fragment, no second walk. *)
let parse_doc ?uri (src : string) : Doc.t =
  Xl_obs.Obs.span ~name:"xml.parse" (fun () ->
      (* rough row estimate: the benchmark corpora average ~25 source
         bytes per node; halving over-allocation beats a late doubling *)
      let b = Doc.create ?uri ~hint:(max 64 (String.length src / 24)) () in
      iter_events src (function
        | Start_element (tag, attrs) -> Doc.open_element b tag attrs
        | Text s -> Doc.text b s
        | End_element -> Doc.close_element b);
      Doc.finish b)
