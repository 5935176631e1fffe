(** Model-to-text transformation: intermediate language -> C monitor code
    (Section 4.2, Figure 10).

    The emitted translation unit mirrors the paper's generated monitors:
    every machine becomes an FRAM-resident state enum + variable struct
    and a step function; the unit ends with the [callMonitor] dispatcher
    wrapped in ImmortalThreads-style [_begin]/[_end] macros, plus
    [resetMonitor] and [monitorFinalize].  The code targets msp430-gcc
    conventions ([__attribute__((section(".persistent")))] for FRAM
    placement) but is plain C99.

    We cannot run msp430-gcc in this environment, so the output is
    golden-tested structurally, and Table 2's [.text] column is estimated
    from the emitted source size (DESIGN.md decision 6). *)

val sanitize : string -> string
(** The one C-identifier rule: every character outside [A-Za-z0-9]
    becomes [_]. *)

val machine : Artemis_fsm.Ast.machine -> string
(** The C for one monitor (enum, persistent variables, step function). *)

val suite : Artemis_fsm.Ast.machine list -> string
(** Complete translation unit: prelude, every machine, and the
    [callMonitor]/[resetMonitor]/[monitorFinalize] interface. *)

val estimated_text_bytes : string -> int
(** [.text] estimate from C source size (factor 0.28, DESIGN.md). *)

val fram_bytes : Artemis_fsm.Ast.machine -> int
(** Bytes of FRAM the machine's state and variables occupy (2 for the
    state, 4 per int/float, 1 per bool, 8 per time). *)
