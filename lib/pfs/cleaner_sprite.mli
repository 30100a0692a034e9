(** The Sprite-LFS baseline cleaner (Rosenblum & Ousterhout 1991).

    Selects victims by scanning the {e entire} segment usage table for
    the lowest-utilisation sealed segments.  Reclamation is identical
    to the Pegasus cleaner's; what differs is the victim-selection
    cost, which grows with the total size of the file system rather
    than with the amount of garbage — the scaling problem the paper's
    garbage-file design removes. *)

val run : Log.t -> (Cleaner.stats -> unit) -> unit
(** Clean every sealed segment whose live fraction is at most 0.99,
    i.e. any segment with garbage.  Examining one segment-table entry
    during the scan costs 1 us. *)
