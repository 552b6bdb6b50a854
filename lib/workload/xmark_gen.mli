(** Deterministic XMark data generator.

    An auction-site instance of {!Xmark_dtd} shaped like the original
    xmlgen output: regions with items, a category graph, people with
    profiles, open/closed auctions wired through IDREFs.  The generator
    guarantees the structural features the Figure-16 scenarios rely on
    (person0, "gold" keywords, deep parlist chains, populated regions,
    income spread, buyers distinct from sellers, a fully-populated
    person for the wide Q10 restructuring). *)

type scale = {
  categories : int;
  items_per_region : int;
  people : int;
  open_auctions : int;
  closed_auctions : int;
}

val default_scale : scale
val tiny_scale : scale

val scale_factor : int -> scale
(** The default scale with every population multiplied by the factor —
    node counts grow roughly linearly, so [scale_factor 10] and
    [scale_factor 100] are the 10x / 100x documents of the scaled
    experiments.  Raises [Invalid_argument] on a factor < 1. *)

val regions : string list
(** The six XMark continents. *)

val generate_frag : ?seed:int -> scale -> Xl_xml.Frag.t
(** The raw auction-site fragment, before any document indexing. *)

val generate : ?seed:int -> scale -> Xl_xml.Doc.t

val generate_valid :
  ?seed:int -> scale -> Xl_xml.Doc.t * Xl_schema.Validate.violation list
(** Generate and validate against the DTD. *)
