# Runs one simulate config plain, then in service mode suspended at
# 5,000 events (exit 3), resumed, and resumed again from the same
# snapshot with periodic invariant audits on.  Passes only if the three
# completed runs write the same CSV byte for byte, run digest included:
#
#   cmake -DEXE=path/to/simulate -DWORK=scratch/dir
#         "-DARGS=--kind;campus;..." -P resume_matches_plain.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(serve --serve --checkpoint-dir ${WORK}/ckpt)

# Runs the command in ARGN; fails unless it exits with `want`.
function(expect_exit want)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                  ERROR_VARIABLE err TIMEOUT 120)
  if(NOT rc STREQUAL want)
    message(FATAL_ERROR "expected exit ${want}, got '${rc}' from ${ARGN}\n${err}")
  endif()
endfunction()

expect_exit(0 ${EXE} ${ARGS} --out ${WORK}/plain.csv)
expect_exit(3 ${EXE} ${ARGS} ${serve} --serve-exit-after-events 5000)
expect_exit(0 ${EXE} ${ARGS} ${serve} --out ${WORK}/resumed.csv)
expect_exit(0 ${CMAKE_COMMAND} -E env DTN_AUDIT=1 DTN_AUDIT_PERIOD=1000
            ${EXE} ${ARGS} ${serve} --out ${WORK}/audited.csv)

file(READ ${WORK}/plain.csv plain)
if(NOT plain MATCHES ",digest\n")
  message(FATAL_ERROR "plain.csv has no digest column:\n${plain}")
endif()
foreach(run resumed audited)
  file(READ ${WORK}/${run}.csv got)
  if(NOT got STREQUAL plain)
    message(FATAL_ERROR "${run} run diverged from the plain run\n"
                        "plain:\n${plain}${run}:\n${got}")
  endif()
endforeach()
