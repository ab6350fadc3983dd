# Smoke + determinism check for the bench harness, run as a ctest.
#
# Runs one bench binary twice — --jobs 2 then --jobs 1 — with the
# same trials/seed and a tiny measure window, and requires the two
# JSON reports to be identical apart from the fields that legitimately
# differ (jobs, wall time, events/sec rate, calibrated host
# parallelism).

# SMOKE_TAG keeps report filenames distinct when several smoke tests
# share WORK_DIR and run in parallel.
if(NOT SMOKE_TAG)
    set(SMOKE_TAG smoke)
endif()

set(common --trials 2 --warmup-sec 0.5 --measure-sec 2)

execute_process(
    COMMAND ${BENCH_BIN} ${common} --jobs 2
        --json ${WORK_DIR}/${SMOKE_TAG}_j2.json
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc2 OUTPUT_QUIET)
if(NOT rc2 EQUAL 0)
    message(FATAL_ERROR "bench --jobs 2 run failed (rc=${rc2})")
endif()

execute_process(
    COMMAND ${BENCH_BIN} ${common} --jobs 1
        --json ${WORK_DIR}/${SMOKE_TAG}_j1.json
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc1 OUTPUT_QUIET)
if(NOT rc1 EQUAL 0)
    message(FATAL_ERROR "bench --jobs 1 run failed (rc=${rc1})")
endif()

foreach(which j1 j2)
    file(STRINGS ${WORK_DIR}/${SMOKE_TAG}_${which}.json lines_${which})
    set(norm_${which} "")
    foreach(line IN LISTS lines_${which})
        if(NOT line MATCHES "\"(jobs|wall_seconds|events_per_second|effective_parallelism)\":")
            string(APPEND norm_${which} "${line}\n")
        endif()
    endforeach()
endforeach()

if(NOT norm_j1 STREQUAL norm_j2)
    message(FATAL_ERROR
        "determinism violation: merged results differ between "
        "--jobs 1 and --jobs 2 at the same seed "
        "(${WORK_DIR}/${SMOKE_TAG}_j1.json vs ${SMOKE_TAG}_j2.json)")
endif()

message(STATUS "bench_smoke: --jobs 1 and --jobs 2 reports identical")
