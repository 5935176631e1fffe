(** Cycle-cost calibration of the runtimes.

    The paper measures overheads on an MSP430FR5994 at 1 MHz; we charge
    overhead work in MCU cycles and convert to time at the configured
    frequency.  The default constants are calibrated so that one
    continuous-power run of the benchmark lands on the Figure 14/15
    scales (seconds of app time, low milliseconds of overhead), with
    ARTEMIS slightly above Mayfly - the paper's qualitative result.  All
    constants are plain record fields so experiments can sweep them. *)

open Artemis_util

type t = {
  mcu_frequency_hz : int;
  mcu_active_power : Energy.power;
      (** baseline MCU draw while executing anything *)
  artemis_runtime_cycles_per_event : int;
      (** checkTask/taskFinish bookkeeping around each task event *)
  artemis_monitor_dispatch_cycles : int;
      (** callMonitor entry/exit, event marshalling *)
  artemis_monitor_cycles_per_property : int;
      (** one FSM step per active property *)
  mayfly_runtime_cycles_per_event : int;
      (** Mayfly main-loop bookkeeping per task event *)
  mayfly_cycles_per_property : int;
      (** fused in-loop check (expiration / collect) *)
  table_op_cycles : int;
      (** worst-case cycles per executed monitor guard/body bytecode op
          (energy-admissibility bound margin; not charged by the
          simulator, which uses the flat per-property constant) *)
  nvm_write_cycles : int;
      (** worst-case cycles per FRAM word write a fired monitor body
          performs (bound margin, same caveat as {!table_op_cycles}) *)
}

val default : t

val cycles_to_time : t -> int -> Time.t
(** Rounds {e up} to the next microsecond: the conversion feeds static
    bounds, so it must never under-account.  Exact (byte-identical to
    the historical truncating version) whenever
    [cycles * 1_000_000 mod mcu_frequency_hz = 0] - in particular at
    the 1 MHz default. *)

val overhead_power : t -> Energy.power
(** Overhead work draws only the MCU baseline (no peripherals). *)

val consume :
  t -> Device.t -> ?during:string -> int -> Device.consume_result
(** The one cycle charge: run [cycles] MCU cycles of runtime or protocol
    bookkeeping on the device as [Runtime_work] at {!overhead_power},
    for {!cycles_to_time} [cycles]. *)
