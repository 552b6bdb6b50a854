(** Deterministic XMark data generator.

    Produces an auction-site instance of {!Xmark_dtd} shaped like the
    output of the original xmlgen: regions with items, a category tree,
    people with profiles, and open/closed auctions wired to items and
    people through IDREFs.  Determinism (splitmix64 seed) keeps the
    interaction counts of the experiments reproducible.

    The generator guarantees the structural features the paper's
    experiment queries rely on: person0 exists (Q1), some descriptions
    contain "gold" (Q14), deep parlist nests exist under closed-auction
    annotations (Q15), every region is populated (Q13), and categories
    have cheap and expensive items in several regions (the q1 running
    example). *)

open Xl_xml

type scale = {
  categories : int;
  items_per_region : int;
  people : int;
  open_auctions : int;
  closed_auctions : int;
}

let default_scale =
  { categories = 6; items_per_region = 7; people = 20; open_auctions = 20; closed_auctions = 30 }

let tiny_scale =
  { categories = 3; items_per_region = 2; people = 5; open_auctions = 3; closed_auctions = 5 }

(** [scale_factor f] is the default scale with every population
    multiplied by [f] — node counts grow roughly linearly in [f], so
    [scale_factor 10] / [scale_factor 100] are the 10x / 100x documents
    of the scaled experiments. *)
let scale_factor f =
  if f < 1 then invalid_arg "Xmark_gen.scale_factor: factor must be >= 1";
  {
    categories = default_scale.categories * f;
    items_per_region = default_scale.items_per_region * f;
    people = default_scale.people * f;
    open_auctions = default_scale.open_auctions * f;
    closed_auctions = default_scale.closed_auctions * f;
  }

let regions = [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ]

let nouns =
  [ "gold"; "duty"; "prove"; "rusty"; "seven"; "march"; "crown"; "ocean"; "table";
    "chair"; "amber"; "cider"; "piano"; "quilt"; "raven"; "sword"; "torch"; "vase" ]

let adjectives =
  [ "great"; "shiny"; "rapid"; "elder"; "still"; "brave"; "quiet"; "vivid"; "plain" ]

let first_names =
  [ "Jaak"; "Mehmet"; "Sini"; "Takeshi"; "Farrukh"; "Liudmila"; "Amaru"; "Bodil";
    "Chen"; "Dilip"; "Eija"; "Farid" ]

let last_names =
  [ "Tempesti"; "Oyama"; "Ruthven"; "Sorensen"; "Garcia"; "Novak"; "Okafor";
    "Lindgren"; "Petrov"; "Banerjee" ]

let cities = [ "Tampere"; "Kyoto"; "Porto"; "Quito"; "Lagos"; "Perth" ]
let countries = [ "Finland"; "Japan"; "Portugal"; "Ecuador"; "Nigeria"; "Australia" ]
let educations = [ "High School"; "College"; "Graduate School"; "Other" ]

let words rng n =
  String.concat " "
    (List.init n (fun _ ->
         if Prng.bool rng then Prng.choose rng adjectives else Prng.choose rng nouns))

let item_name rng i =
  Printf.sprintf "%s %s %d" (Prng.choose rng adjectives) (Prng.choose rng nouns) i

(* a <text> node, sometimes containing keyword/emph children *)
let text_node rng ~force_gold =
  let parts =
    [ Frag.T (words rng 4) ]
    @ (if force_gold || Prng.flip rng 0.3 then
         [ Frag.e "keyword" [ Frag.T (if force_gold then "gold" else Prng.choose rng nouns) ] ]
       else [])
    @ [ Frag.T (words rng 3) ]
    @ (if Prng.flip rng 0.25 then [ Frag.e "emph" [ Frag.T (Prng.choose rng nouns) ] ] else [])
  in
  Frag.e "text" parts

let description rng ~force_gold ~deep =
  if deep then
    (* the Q15 chain: parlist/listitem/parlist/listitem/text/keyword/emph *)
    Frag.e "description"
      [
        Frag.e "parlist"
          [
            Frag.e "listitem"
              [
                Frag.e "parlist"
                  [
                    Frag.e "listitem"
                      [
                        Frag.e "text"
                          [
                            Frag.T (words rng 2);
                            Frag.e "keyword"
                              [ Frag.e "emph" [ Frag.T (Prng.choose rng nouns) ] ];
                          ];
                      ];
                  ];
              ];
          ];
      ]
  else Frag.e "description" [ text_node rng ~force_gold ]

let generate_frag ?(seed = 20040301) (scale : scale) : Frag.t =
  let rng = Prng.create ~seed in
  let ncat = max 2 scale.categories in
  let cat_id k = Printf.sprintf "category%d" k in
  let categories =
    Frag.e "categories"
      (List.init ncat (fun k ->
           Frag.e "category"
             ~attrs:[ ("id", cat_id k) ]
             [
               Frag.elem "name" (Printf.sprintf "%s %s" (Prng.choose rng adjectives) (Prng.choose rng nouns));
               description rng ~force_gold:false ~deep:false;
             ]))
  in
  let catgraph =
    Frag.e "catgraph"
      (List.init (ncat - 1) (fun k ->
           Frag.e "edge" ~attrs:[ ("from", cat_id k); ("to", cat_id (k + 1)) ] []))
  in
  (* items: ids are globally unique; remember ids per region for wiring *)
  let item_counter = ref 0 in
  let all_items = ref [] in
  let region_frag rname =
    Frag.e rname
      (List.init scale.items_per_region (fun _ ->
           let i = !item_counter in
           incr item_counter;
           let id = Printf.sprintf "item%d" i in
           all_items := id :: !all_items;
           let n_incat = 1 + Prng.int rng 2 in
           let force_gold = i mod 5 = 0 in
           Frag.e "item"
             ~attrs:
               ([ ("id", id) ] @ if Prng.flip rng 0.2 then [ ("featured", "yes") ] else [])
             ([
                Frag.elem "location" (Prng.choose rng countries);
                Frag.elem "quantity" (string_of_int (1 + Prng.int rng 5));
                Frag.elem "name" (item_name rng i);
                Frag.elem "payment" "Creditcard";
                description rng ~force_gold ~deep:false;
                Frag.elem "shipping" "Will ship internationally";
              ]
             @ List.init n_incat (fun j ->
                   Frag.e "incategory"
                     ~attrs:[ ("category", cat_id ((i + j) mod ncat)) ]
                     [])
             @ [
                 Frag.e "mailbox"
                   (if Prng.flip rng 0.4 then
                      [
                        Frag.e "mail"
                          [
                            Frag.elem "from" (Prng.choose rng first_names);
                            Frag.elem "to" (Prng.choose rng first_names);
                            Frag.elem "date" "07/15/1999";
                            text_node rng ~force_gold:false;
                          ];
                      ]
                    else []);
               ])))
  in
  let regions_frag = Frag.e "regions" (List.map region_frag regions) in
  let items = List.rev !all_items in
  let nitems = List.length items in
  let person_id k = Printf.sprintf "person%d" k in
  let people =
    Frag.e "people"
      (List.init scale.people (fun k ->
           let complete = k = 2 in
           let has_home = complete || k mod 3 <> 0 in
           let has_income = complete || k mod 4 <> 1 in
           let income = 30000 + (k * 7000 mod 100000) in
           Frag.e "person"
             ~attrs:[ ("id", person_id k) ]
             ([
                Frag.elem "name"
                  (Printf.sprintf "%s %s" (Prng.choose rng first_names) (Prng.choose rng last_names));
                Frag.elem "emailaddress" (Printf.sprintf "mailto:user%d@example.org" k);
              ]
             @ (if complete || Prng.flip rng 0.5 then [ Frag.elem "phone" (Printf.sprintf "+1 555 01%02d" k) ] else [])
             @ (if complete || Prng.flip rng 0.6 then
                  [
                    Frag.e "address"
                      [
                        Frag.elem "street" (Printf.sprintf "%d %s St" (1 + Prng.int rng 99) (Prng.choose rng nouns));
                        Frag.elem "city" (Prng.choose rng cities);
                        Frag.elem "country" (Prng.choose rng countries);
                        Frag.elem "zipcode" (string_of_int (10000 + Prng.int rng 89999));
                      ];
                  ]
                else [])
             @ (if has_home then [ Frag.elem "homepage" (Printf.sprintf "http://example.org/~u%d" k) ] else [])
             @ (if complete || Prng.flip rng 0.5 then [ Frag.elem "creditcard" (Printf.sprintf "%04d %04d" k (k * 13 mod 9999)) ] else [])
             @ [
                 Frag.e "profile"
                   ~attrs:(if has_income then [ ("income", string_of_int income) ] else [])
                   (List.init (if complete then 3 else Prng.int rng 3) (fun j ->
                        Frag.e "interest" ~attrs:[ ("category", cat_id ((k + j) mod ncat)) ] [])
                   @ (if complete || Prng.flip rng 0.5 then [ Frag.elem "education" (Prng.choose rng educations) ] else [])
                   @ (if complete || Prng.flip rng 0.7 then [ Frag.elem "gender" (if Prng.bool rng then "male" else "female") ] else [])
                   @ [ Frag.elem "business" (if Prng.bool rng then "Yes" else "No") ]
                   @ if complete || Prng.flip rng 0.7 then [ Frag.elem "age" (string_of_int (18 + Prng.int rng 50)) ] else []);
               ]
             @
             if Prng.flip rng 0.4 && scale.open_auctions > 0 then
               [
                 Frag.e "watches"
                   [
                     Frag.e "watch"
                       ~attrs:[ ("open_auction", Printf.sprintf "open_auction%d" (Prng.int rng scale.open_auctions)) ]
                       [];
                   ];
               ]
             else [])))
  in
  let open_auctions =
    Frag.e "open_auctions"
      (List.init scale.open_auctions (fun k ->
           let nbidders = 1 + Prng.int rng 3 in
           let initial = 5 + Prng.int rng 100 in
           Frag.e "open_auction"
             ~attrs:[ ("id", Printf.sprintf "open_auction%d" k) ]
             ([ Frag.elem "initial" (string_of_int initial) ]
             @ (if Prng.flip rng 0.5 then [ Frag.elem "reserve" (string_of_int (initial * 2)) ] else [])
             @ List.init nbidders (fun b ->
                   Frag.e "bidder"
                     [
                       Frag.elem "date" "07/15/1999";
                       Frag.elem "time" (Printf.sprintf "%02d:30:00" (8 + b));
                       Frag.e "personref"
                         ~attrs:[ ("person", person_id (Prng.int rng scale.people)) ]
                         [];
                       Frag.elem "increase" (string_of_int ((b + 1) * (3 + Prng.int rng 18)));
                     ])
             @ [
                 Frag.elem "current" (string_of_int (initial + (nbidders * 10)));
                 Frag.e "itemref" ~attrs:[ ("item", List.nth items (Prng.int rng nitems)) ] [];
                 Frag.e "seller" ~attrs:[ ("person", person_id (Prng.int rng scale.people)) ] [];
                 Frag.e "annotation"
                   [
                     Frag.e "author" ~attrs:[ ("person", person_id (Prng.int rng scale.people)) ] [];
                     description rng ~force_gold:false ~deep:false;
                     Frag.elem "happiness" (string_of_int (1 + Prng.int rng 10));
                   ];
                 Frag.elem "quantity" "1";
                 Frag.elem "type" "Regular";
                 Frag.e "interval" [ Frag.elem "start" "07/04/1999"; Frag.elem "end" "09/01/1999" ];
               ])))
  in
  let closed_auctions =
    Frag.e "closed_auctions"
      (List.init scale.closed_auctions (fun k ->
           (* prices spread around the paper's thresholds: some < 40,
              some in [40, 300), some >= 300 *)
           let price =
             match k mod 4 with
             | 0 -> 15 + Prng.int rng 20
             | 1 | 2 -> 45 + Prng.int rng 200
             | _ -> 320 + Prng.int rng 400
           in
           let buyer = k mod scale.people in
           let seller =
             (* always a different person than the buyer *)
             let s = (k + 3) mod scale.people in
             if s = buyer then (s + 1) mod scale.people else s
           in
           Frag.e "closed_auction"
             ([
                Frag.e "seller" ~attrs:[ ("person", person_id seller) ] [];
                Frag.e "buyer" ~attrs:[ ("person", person_id buyer) ] [];
                Frag.e "itemref" ~attrs:[ ("item", List.nth items ((k * 7 + 2) mod nitems)) ] [];
                Frag.elem "price" (string_of_int price);
                Frag.elem "date" "08/11/1999";
                Frag.elem "quantity" "1";
                Frag.elem "type" "Regular";
              ]
             @
             if k mod 3 = 0 then
               [
                 Frag.e "annotation"
                   [
                     Frag.e "author" ~attrs:[ ("person", person_id (Prng.int rng scale.people)) ] [];
                     description rng ~force_gold:false ~deep:(k mod 6 = 0);
                     Frag.elem "happiness" (string_of_int (1 + Prng.int rng 10));
                   ];
               ]
             else [])))
  in
  Frag.e "site"
    [ regions_frag; categories; catgraph; people; open_auctions; closed_auctions ]

let generate ?seed (scale : scale) : Doc.t =
  Doc.of_frag ~uri:"auction.xml" (generate_frag ?seed scale)

(** Generate and validate against the DTD (used by tests). *)
let generate_valid ?seed scale : Doc.t * Xl_schema.Validate.violation list =
  let doc = generate ?seed scale in
  (doc, Xl_schema.Validate.validate (Xmark_dtd.get ()) doc)
