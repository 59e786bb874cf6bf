(** The Sequencer: version authority and recovery orchestrator.

    On creation (recruited by the ClusterController) it runs the §2.4.4
    recovery: lock the coordinated state, stop the previous epoch's
    LogServers, compute PEV = max KCV and RV = min DV, recruit and seed a
    new transaction system, write the new configuration to the
    coordinators, and tell StorageServers to roll back past RV. Afterwards
    it hands out read versions (max acknowledged commit) and commit
    versions (monotonic, ~1M/s, forming the LSN chain), and monitors its
    proxies / resolvers / LogServers — any failure makes it terminate so
    the ClusterController starts the next generation (§2.3.5). *)

type t

val create : Context.t -> Fdb_sim.Process.t -> ratekeeper:int option -> cc:int -> t * int
(** Instantiate on a process and return its endpoint. Registration and the
    recovery actor start immediately; the sequencer answers
    [Error Database_locked] until recovery completes, then sends
    [Cc_recovered] to the ClusterController at endpoint [cc]. Once dead it
    stays registered and answers everything with [Error Wrong_epoch]. *)

(** {2 Recovery hand-off} (exposed for tests) *)

val merge_entries : Message.lock_reply list -> Types.version -> Message.log_entry list
(** [merge_entries replies rv]: the unpopped entries of the old LogServers'
    [Log_lock] answers merged into one LSN-ordered list at or below [rv].
    Each tag's stream at an LSN comes from the first reply that holds it. *)

val seed_entries :
  entries:Message.log_entry list -> n_logs:int -> replication:int -> int -> Message.log_entry list
(** New LogServer [i]'s share of the merged entries: each mutation with a
    tag [i] replicates, keeping only those tags. *)
