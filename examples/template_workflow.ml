(* The full template workflow of paper Section 4.1, end to end:

   1. the *target* schema produces a template (with "1"-labeled edges
      from the one-to-one analysis);
   2. the user's drops pick Drop Boxes, giving the XQ-Tree skeleton;
   3. learning fills in the fragments — here without any source schema
      at all: rule R1 falls back to a DataGuide derived from the
      instance;
   4. the interaction transcript shows every question asked.

     dune exec examples/template_workflow.exe *)

open Xl_xquery
open Xl_xqtree

let target_schema =
  {|<!ELEMENT report (entry*)>
    <!ELEMENT entry (who, mail)>
    <!ELEMENT who (#PCDATA)>
    <!ELEMENT mail (#PCDATA)>|}

let () =
  let source = Xl_workload.Xmark_gen.generate Xl_workload.Xmark_gen.tiny_scale in
  let store = Xl_xml.Store.of_docs [ source ] in

  (* 1. template from the target schema *)
  let dtd = Xl_schema.Dtd_parser.parse target_schema in
  let template = Xl_core.Template.from_dtd dtd in
  print_endline "=== Template (1-labeled edges marked) ===";
  print_string (Xl_core.Template.to_string template);

  (* 2. the user drops into the who and mail boxes: skeleton *)
  let skeleton =
    Xl_core.Template.skeleton template
      [ [ "report"; "entry"; "who" ]; [ "report"; "entry"; "mail" ] ]
  in
  print_endline "\n=== XQ-Tree skeleton from the drops ===";
  print_string (Xqtree.to_listing skeleton);

  (* 3. the intended mapping: each person's name and email address.
        who is 1-1 under entry, so it collapses with the person loop. *)
  let target =
    Xqtree.make ~tag:"report" "N1"
      ~children:
        [
          Xqtree.make ~tag:"entry" ~var:"p"
            ~source:(Xqtree.Abs (None, Parser.parse_path_string "/site/people/person"))
            "N1.1"
            ~children:
              [
                Xqtree.make ~tag:"who" ~one_edge:true ~var:"w"
                  ~source:(Xqtree.Rel (Parser.parse_path_string "name")) "N1.1.1";
                Xqtree.make ~tag:"mail" ~var:"m"
                  ~source:(Xqtree.Rel (Parser.parse_path_string "emailaddress"))
                  "N1.1.2";
              ];
        ]
  in
  (* note: no ~source_dtd — learning runs on the DataGuide alone *)
  let scenario =
    Xl_core.Scenario.make ~store ~target
      ~description:"person directory, learned without any source schema"
      "directory"
  in
  let m = Xl_core.Machine.start scenario in
  let r, m = Xl_core.Machine.drive ~teacher:(Xl_core.Machine.oracle_teacher m) m in

  print_endline "\n=== Interaction transcript (cf. paper Figure 5) ===";
  print_endline (Xl_core.Dialog.to_string (Xl_core.Machine.transcript m));
  print_endline "\n=== Learned mapping ===";
  print_endline r.Xl_core.Learn.query_text;
  Printf.printf "\nInteractions: %s\nverified=%b (source schema: none — DataGuide fallback)\n"
    (Xl_core.Stats.to_row r.Xl_core.Learn.stats)
    r.Xl_core.Learn.verified
