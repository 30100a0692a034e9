(** The Pegasus cleaner.

    Reads the {!Garbage} file, sorts its entries by segment number, and
    cleans every segment containing garbage in a single pass.  Its cost
    depends only on the number of entries (the amount of garbage) and
    the number of segments to be cleaned — never on the size of the
    file system, which is what lets the design scale to 10 terabytes.
    Client operations may continue while it runs: it freezes a marker
    in the garbage file and ignores entries appended after it. *)

type stats = {
  segments_cleaned : int;
  bytes_moved : int;  (** live data copied to the head of the log *)
  bytes_reclaimed : int;  (** garbage bytes freed *)
  entries_processed : int;  (** garbage-file entries consumed *)
  table_entries_scanned : int;
      (** segment-table entries examined (0 here; the Sprite baseline
          scans them all) *)
  scan_cost : Sim.Time.t;  (** modelled cost of reading/sorting input *)
  duration : Sim.Time.t;  (** wall-clock of the whole pass *)
}

val pp_stats : Format.formatter -> stats -> unit

val run : Log.t -> ?min_garbage:int -> (stats -> unit) -> unit
(** Clean every sealed segment with at least [min_garbage] bytes of
    garbage recorded before the marker (default 1). *)

(** {1 Shared machinery (used by the Sprite baseline too)} *)

val clean_sequentially :
  Log.t -> int list -> k:(segments:int -> moved:int -> unit) -> unit
(** Clean the given segments one after another (skipping any that are
    no longer sealed). *)
