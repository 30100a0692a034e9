(** The garbage file.

    During normal operation, every client write or delete that
    obsoletes data appends an entry describing the hole in the log.
    Cleaning reads the entries, sorts them by segment, and cleans in a
    single pass — so its cost depends only on the number of segments to
    be cleaned and the amount of garbage, never on the size of the file
    system.

    Client operations may continue during cleaning: the cleaner first
    {!set_marker}s the current end of the file and uses only entries
    before the marker, while new garbage is appended after it;
    {!truncate_to_marker} then discards the consumed prefix, keeping
    the entries of segments the pass left uncleaned. *)

type entry = { g_seg : int; g_off : int; g_len : int }

type t

val create : unit -> t

val append : t -> seg:int -> off:int -> len:int -> unit

val count : t -> int
(** Entries currently in the file. *)

val total_bytes : t -> int
(** Garbage bytes described by all entries. *)

val set_marker : t -> unit
(** Mark the current end; the entries before it are frozen from here
    on. *)

val iter_before_marker : t -> (entry -> unit) -> unit
(** Apply a function to each entry written before the marker, oldest
    first ({!set_marker} must have run). *)

val truncate_to_marker : t -> keep:(int -> bool) -> unit
(** Consume the portion before the marker and clear it.  The entries
    appended since the marker come first, then the pre-marker entries
    whose segment [keep] accepts, in their original order.  Reuses the
    file's array and its entries, in time linear in their number. *)

val file_bytes : t -> int
(** Size of the garbage file itself (16 bytes per entry) — the amount
    of sequential I/O a cleaning pass must read. *)
