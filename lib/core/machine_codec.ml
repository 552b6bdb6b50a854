(* The XLMACHIN codec (see machine_codec.mli).

   Layout (little-endian, version 2):

     magic "XLMACHIN"                                  8 bytes
     version                                           u32
     config: r1 r2                                     2 x u8
             strategy (0 Best, 1 Worst)                u8
             max_rounds                                u32
     scenario name                                     blob
     phase tag (0 drop, 1 learn, 2 verify,
                3 repair, 4 finished)                  u8
       + task label (blob, tag 1) | pass (u32, tag 3)
     entry count                                       u32
     entries, oldest first:
       question digest                                 u32
       answer tag + payload (see below)
     MD5 digest of everything above                    16 bytes

   blob = u32 length + bytes.  Nodes are stored as (document URI blob,
   Dewey length u32, Dewey components u32 each) — the only
   process-stable identity a node has.  Cond.t and Simple_path values
   (pure data, no closures) are stored as Marshal blobs; their payload
   integrity is guaranteed by the trailing digest, which is checked
   before any structural decoding.  The pool is deliberately absent:
   parallelism is an execution resource, not learner state. *)

open Xl_xml
open Xl_xqtree

type answer =
  | Bool of bool
  | Bools of bool list
  | Eq of Teacher.eq_answer
  | Cb of Teacher.cb_answer option
  | Order of (Xl_xquery.Simple_path.t * bool) list

type entry = int * answer

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* -------- node references and phase names ------------------------------- *)

let node_ref (store : Store.t) (n : Node.t) : string * int list =
  let root = Node.root n in
  match
    List.find_opt (fun (d : Doc.t) -> Node.equal d.Doc.doc_node root) (Store.docs store)
  with
  | Some d -> (d.Doc.uri, n.Node.dewey)
  | None ->
    invalid_arg
      "Machine: a teacher answer names a node outside the scenario's store"

let node_of_ref (store : Store.t) ~uri ~dewey : (Node.t, string) result =
  match Store.find store uri with
  | None -> Error (Printf.sprintf "document %S not in this store" uri)
  | Some doc ->
    let rec walk (n : Node.t) = function
      | [] -> Ok n
      | k :: _ when k < 1 -> Error (Printf.sprintf "dewey step %d is not positive" k)
      | k :: rest -> (
        match List.nth_opt (Node.attributes n @ Node.children n) (k - 1) with
        | Some child -> walk child rest
        | None ->
          Error
            (Printf.sprintf "dewey step %d out of range under %s" k (Node.symbol n)))
    in
    walk doc.Doc.doc_node dewey

let phase_name : Engine.phase -> string = function
  | Dropping -> "dropping"
  | Learning l -> "learning:" ^ l
  | Verifying -> "verifying"
  | Repairing n -> Printf.sprintf "repairing:%d" n
  | Finished -> "finished"

(* -------- writing -------------------------------------------------------- *)

let magic = "XLMACHIN"
let version = 2

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_bool b v = add_u8 b (if v then 1 else 0)

let add_blob b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_node b store (n : Node.t) =
  let uri, dewey = node_ref store n in
  add_blob b uri;
  add_u32 b (List.length dewey);
  List.iter (add_u32 b) dewey

let add_answer b store (a : answer) =
  match a with
  | Bool false -> add_u8 b 0
  | Bool true -> add_u8 b 1
  | Bools bs ->
    add_u8 b 2;
    add_u32 b (List.length bs);
    let byte = ref 0 and fill = ref 0 in
    List.iter
      (fun v ->
        if v then byte := !byte lor (1 lsl !fill);
        incr fill;
        if !fill = 8 then begin
          add_u8 b !byte;
          byte := 0;
          fill := 0
        end)
      bs;
    if !fill > 0 then add_u8 b !byte
  | Eq Teacher.Equal -> add_u8 b 3
  | Eq (Teacher.Counter { node; positive }) ->
    add_u8 b 4;
    add_bool b positive;
    add_node b store node
  | Cb None -> add_u8 b 5
  | Cb (Some { Teacher.cond; terminals; negative }) ->
    add_u8 b 6;
    add_u32 b terminals;
    add_bool b negative;
    add_blob b (Marshal.to_string (cond : Cond.t) [])
  | Order keys ->
    add_u8 b 7;
    add_blob b (Marshal.to_string (keys : (Xl_xquery.Simple_path.t * bool) list) [])

let add_entry b store ((qh, a) : entry) =
  add_u32 b qh;
  add_answer b store a

let encode (config : Learn_types.config) (scenario : Scenario.t)
    (phase : Engine.phase) (entries : entry list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  add_u32 b version;
  add_bool b config.rules.Plearner.r1;
  add_bool b config.rules.Plearner.r2;
  add_u8 b (match config.strategy with Oracle.Best -> 0 | Oracle.Worst -> 1);
  add_u32 b config.max_rounds;
  add_blob b scenario.Scenario.name;
  (match phase with
  | Dropping -> add_u8 b 0
  | Learning label ->
    add_u8 b 1;
    add_blob b label
  | Verifying -> add_u8 b 2
  | Repairing pass ->
    add_u8 b 3;
    add_u32 b pass
  | Finished -> add_u8 b 4);
  add_u32 b (List.length entries);
  List.iter (add_entry b scenario.Scenario.store) entries;
  let body = Buffer.contents b in
  body ^ Digest.string body

(* -------- reading -------------------------------------------------------- *)

type cursor = { data : string; mutable pos : int; limit : int }

let need (c : cursor) n what =
  if c.pos + n > c.limit then corrupt "machine snapshot truncated reading %s" what

let u8 c what =
  need c 1 what;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u32 c what =
  need c 4 what;
  let v = Int32.to_int (String.get_int32_le c.data c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then corrupt "negative length in %s" what;
  v

let blob c what =
  let n = u32 c what in
  need c n what;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let read_bool c what =
  match u8 c what with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad boolean %d in %s" v what

(* [n] values, read in cursor order *)
let read_list n read =
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      let x = read () in
      go (n - 1) (x :: acc)
  in
  go n []

let read_node c store : Node.t =
  let uri = blob c "node uri" in
  let dewey = read_list (u32 c "dewey length") (fun () -> u32 c "dewey component") in
  match node_of_ref store ~uri ~dewey with
  | Ok n -> n
  | Error e -> corrupt "snapshot node: %s" e

let read_answer c store : answer =
  match u8 c "answer tag" with
  | 0 -> Bool false
  | 1 -> Bool true
  | 2 ->
    let n = u32 c "bools length" in
    let nbytes = (n + 7) / 8 in
    need c nbytes "bools payload";
    let bs =
      List.init n (fun i ->
          Char.code c.data.[c.pos + (i / 8)] land (1 lsl (i mod 8)) <> 0)
    in
    c.pos <- c.pos + nbytes;
    Bools bs
  | 3 -> Eq Teacher.Equal
  | 4 ->
    let positive = read_bool c "counterexample sign" in
    Eq (Teacher.Counter { node = read_node c store; positive })
  | 5 -> Cb None
  | 6 ->
    let terminals = u32 c "cb terminals" in
    let negative = read_bool c "cb negation" in
    let cond : Cond.t = Marshal.from_string (blob c "cb condition") 0 in
    Cb (Some { Teacher.cond; terminals; negative })
  | 7 -> Order (Marshal.from_string (blob c "order keys") 0)
  | tag -> corrupt "bad answer tag %d" tag

let entry c store : entry =
  let qh = u32 c "question digest" in
  (qh, read_answer c store)

let read_entry store data ~pos : entry * int =
  let c = { data; pos; limit = String.length data } in
  let e = entry c store in
  (e, c.pos)

let decode ?pool ~(scenario : Scenario.t) (data : string) :
    Learn_types.config * Engine.phase * entry list =
  let len = String.length data in
  let digest_bytes = 16 in
  if len < String.length magic + 4 + digest_bytes then
    corrupt "machine snapshot too short (%d bytes)" len;
  if not (String.equal (String.sub data 0 8) magic) then
    corrupt "bad magic (not a machine snapshot)";
  let body = String.sub data 0 (len - digest_bytes) in
  let c = { data; pos = 8; limit = len - digest_bytes } in
  let v = u32 c "version" in
  if v <> version then
    corrupt "unsupported machine snapshot version %d (expected %d)" v version;
  if
    not
      (String.equal (String.sub data (len - digest_bytes) digest_bytes)
         (Digest.string body))
  then corrupt "checksum mismatch (snapshot corrupted or truncated)";
  let r1 = read_bool c "config.r1" in
  let r2 = read_bool c "config.r2" in
  let strategy =
    match u8 c "config.strategy" with
    | 0 -> Oracle.Best
    | 1 -> Oracle.Worst
    | v -> corrupt "bad strategy %d" v
  in
  let max_rounds = u32 c "config.max_rounds" in
  let config = { Learn_types.rules = { Plearner.r1; r2 }; strategy; max_rounds; pool } in
  let name = blob c "scenario name" in
  if not (String.equal name scenario.Scenario.name) then
    corrupt "snapshot is of scenario %S, not %S" name scenario.Scenario.name;
  let phase : Engine.phase =
    match u8 c "phase tag" with
    | 0 -> Dropping
    | 1 -> Learning (blob c "phase label")
    | 2 -> Verifying
    | 3 -> Repairing (u32 c "phase pass")
    | 4 -> Finished
    | tag -> corrupt "bad phase tag %d" tag
  in
  let entries =
    read_list (u32 c "entry count") (fun () -> entry c scenario.Scenario.store)
  in
  if c.pos <> c.limit then
    corrupt "%d trailing bytes after the transcript" (c.limit - c.pos);
  (config, phase, entries)
