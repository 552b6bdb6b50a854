(* Seeded workload inputs.  Everything a run feeds the program is a
   function of the seed alone: the order of the learned scenarios, the
   session mixes, the uploaded documents and the suspend points.
   The program sees only these generated inputs, never the seed. *)

module Prng = Xl_workload.Prng
module Xmark_gen = Xl_workload.Xmark_gen

let default_seed = 20040301

(* independent streams per purpose, so adding draws to one stream never
   shifts another *)
let stream seed purpose = Prng.split (Prng.create ~seed) purpose

(* ---- in-process learning ------------------------------------------------ *)

let tag suite l = List.map (fun (n, sc) -> (suite ^ "/" ^ n, sc)) l

(* A seeded order of [items]: a Fisher-Yates shuffle drawn from [rng]. *)
let shuffle rng items =
  let a = Array.of_list items in
  for k = Array.length a - 1 downto 1 do
    let j = Prng.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The learn-* workloads learn on the default XMark instance (the one
   EXPERIMENTS.md reports) at every seed; the seed orders the scenarios of
   a pass.  The instance is not drawn from the seed because the learner's
   work depends on it (one seeded 1x instance took 0.63 s a pass and
   another 0.95 s; Q9 on a 4x instance varies more), so runs on
   different seeds would measure different work. *)

(* The Figure-16 set: the 19 XMark scenarios on the 1x instance plus the
   11 XMP scenarios (fixed use-case data). *)
let fig16_scenarios ~seed =
  shuffle (stream seed 8)
    (tag "xmark" (Xl_workload.Xmark_scenarios.all ~seed:default_seed ())
    @ tag "xmp" (Xl_workload.Xmp_scenarios.all ()))

(* The XMark scenarios on the [factor]x instance, built through the
   one-pass streaming ingestion path. *)
let xmark_scaled_scenarios ~seed ~factor =
  shuffle (stream seed 8)
    (tag "xmark"
       (Xl_workload.Xmark_scenarios.all ~scale:(Xmark_gen.scale_factor factor) ~seed:default_seed
          ~streamed:true ()))

(* ---- uploaded documents ------------------------------------------------- *)

(* The [i]th upload document of a run: a 1x XMark instance whose
   generator seed is drawn from the run seed and [i]. *)
let upload_doc_seed ~seed i = Int64.to_int (Prng.next_int64 (Prng.split (stream seed 1) i)) land 0x3fffffff

let upload_xml ~seed i =
  Xl_xml.Serialize.frag_to_string
    (Xmark_gen.generate_frag ~seed:(upload_doc_seed ~seed i) Xmark_gen.default_scale)

(* ---- serve-churn: the session mix --------------------------------------- *)

(* The [i]th element of an endless run of seeded shuffles of [items]:
   every block of [List.length items] draws holds each item once, so the
   mix of any long prefix is fixed and only the order depends on the
   seed. *)
let cycle_pick ~seed ~purpose items i =
  let n = List.length items in
  List.nth (shuffle (Prng.split (stream seed purpose) (i / n)) items) (i mod n)

(* Uploads come at a fixed rate over the whole run, [upload_rate] a
   second, between the catalog sessions.  Even-numbered uploads bring a
   new document; odd-numbered ones upload an earlier document again,
   which the server deduplicates by digest.  The rate is set by memory:
   the server keeps every uploaded store (about 2 MB for a 1x document)
   and never evicts one, so four new documents a second add about
   250 MB to the server over a 30 s run.  At that rate ingest is a
   measured share of the server's time (README.md, Workloads). *)
let upload_rate = 8.

(* The uploads of a run of [seconds]: every one due before the deadline,
   so their number depends on the run's length alone, never on how fast
   the server answers. *)
let uploads ~seconds = int_of_float (Float.ceil (seconds *. upload_rate))

(* the new documents those uploads bring *)
let new_docs ~seconds = ((uploads ~seconds - 1) / 2) + 1

(* The catalog XMark targets an upload may learn.  Q4 and Q16 are left
   out: their targets name a person of the catalog's own instance (the
   bidder of Q4, the seller of Q16, found in that instance when the
   scenario is built), so on another document they ask for a query about
   someone who need not appear there.  On about 40% of seeded 1x
   documents no auction with a reserve has Q4's bidder, no example can be
   dragged, and the session cannot be learned (README.md, Findings). *)
let instance_bound_targets = [ "xmark/Q4"; "xmark/Q16" ]

let upload_targets catalog =
  List.filter
    (fun n -> String.starts_with ~prefix:"xmark/" n && not (List.mem n instance_bound_targets))
    catalog

type upload = { doc : int;  (** index into the run's {!upload_xml} documents *) target : string }

(* The [k]th upload of a run: new document [k / 2] for even [k], else a
   seeded one of the [k / 2 + 1] documents already out; the target is one
   of {!upload_targets}. *)
let upload ~seed ~targets k =
  let doc = if k mod 2 = 0 then k / 2 else Prng.int (Prng.split (stream seed 3) k) ((k / 2) + 1) in
  { doc; target = cycle_pick ~seed ~purpose:6 targets k }

(* The [k]th catalog session: a scenario of the catalog, suspended and
   resumed after a seeded number (0, 1 or 2) of answer requests, or not
   at all when its dialogue ends first.  The range is a choice, not a
   measurement: it suspends most dialogues early, while their
   transcripts are short. *)
type catalog_session = { scenario : string; suspend_after : int }

let catalog_session ~seed ~catalog k =
  {
    scenario = cycle_pick ~seed ~purpose:7 catalog k;
    suspend_after = Prng.int (Prng.split (stream seed 9) k) 3;
  }
