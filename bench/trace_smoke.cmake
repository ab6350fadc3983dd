# Trace capture smoke + determinism check, run as a ctest.
#
# Runs the coordinated RUBiS bench with --trace on, validates the
# emitted Chrome trace-event JSON with the trace_check schema checker
# (requiring at least one complete multi-hop causal span — the
# classifier -> Tune -> apply chain — and that no flow chain steps
# backwards in time: the channel's hops are traced at transmit and
# its deliveries later, and the leg arithmetic depends on that
# order), then reruns with --jobs 2 and
# requires the trace bytes to be identical: trace capture comes from
# trial 0 only, so parallelism must not perturb it.

execute_process(
    COMMAND ${BENCH_BIN} --trials 2 --warmup-sec 0.5 --measure-sec 2
        --jobs 1 --trace ${WORK_DIR}/trace_j1.json
        --json ${WORK_DIR}/trace_smoke_j1.json --metrics
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
    message(FATAL_ERROR "traced bench run failed (rc=${rc1})")
endif()

execute_process(
    COMMAND ${CHECK_BIN} ${WORK_DIR}/trace_j1.json --require-flow
        --monotone-flows
    RESULT_VARIABLE rcc)
if(NOT rcc EQUAL 0)
    message(FATAL_ERROR "trace_check rejected the trace (rc=${rcc})")
endif()

execute_process(
    COMMAND ${BENCH_BIN} --trials 2 --warmup-sec 0.5 --measure-sec 2
        --jobs 2 --trace ${WORK_DIR}/trace_j2.json
        --json ${WORK_DIR}/trace_smoke_j2.json --metrics
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc2 OUTPUT_QUIET)
if(NOT rc2 EQUAL 0)
    message(FATAL_ERROR "traced --jobs 2 run failed (rc=${rc2})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/trace_j1.json ${WORK_DIR}/trace_j2.json
    RESULT_VARIABLE rcd)
if(NOT rcd EQUAL 0)
    message(FATAL_ERROR
        "determinism violation: trial-0 trace differs between "
        "--jobs 1 and --jobs 2 "
        "(${WORK_DIR}/trace_j1.json vs trace_j2.json)")
endif()

message(STATUS "trace_smoke: trace valid, flow spans present and "
    "monotone, byte-identical across --jobs")
