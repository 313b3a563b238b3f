# Drives the sarn CLI through its full pipeline and fails on any error.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()
file(REMOVE ${WORK_DIR}/metrics.jsonl ${WORK_DIR}/trace.json)
run_step(${SARN_CLI} generate --city SF --scale 0.015 --out ${WORK_DIR}/net.csv)
run_step(${SARN_CLI} train --network ${WORK_DIR}/net.csv --epochs 2 --dim 16
         --weights ${WORK_DIR}/model.ckpt --embeddings ${WORK_DIR}/emb.csv
         --metrics-file ${WORK_DIR}/metrics.jsonl
         --trace-file ${WORK_DIR}/trace.json)
# The weights file is an arena of the one container: snapshot save
# --checkpoint restores it, and the serving snapshot it writes loads and
# answers a query.
run_step(${SARN_CLI} snapshot save --checkpoint ${WORK_DIR}/model.ckpt
         --network ${WORK_DIR}/net.csv --dim 16 --out ${WORK_DIR}/model.sarnsnap)
run_step(${SARN_CLI} snapshot load --in ${WORK_DIR}/model.sarnsnap --query-id 0)
# Cross-feeds: each reader refuses the other section set with exit 1, a
# typed error and the name of the section it is missing.
function(expect_missing_section section tag)
  execute_process(COMMAND ${SARN_CLI} ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${ARGN}: expected exit 1, got ${code}\n${out}\n${err}")
  endif()
  foreach(needle "[${tag}]" "'${section}'")
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${ARGN}: message lacks ${needle}: ${err}")
    endif()
  endforeach()
endfunction()
expect_missing_section(meta malformed
  snapshot load --in ${WORK_DIR}/model.ckpt)
expect_missing_section(sarn/online parse_error
  snapshot save --checkpoint ${WORK_DIR}/model.sarnsnap
  --network ${WORK_DIR}/net.csv --dim 16 --out ${WORK_DIR}/cross.sarnsnap)
# A weights file of another encoder variant is refused with exit 1 and one
# message: the typed error is reported once, not also logged by the loader.
execute_process(COMMAND ${SARN_CLI} snapshot save --checkpoint ${WORK_DIR}/model.ckpt
                --encoder rfn --network ${WORK_DIR}/net.csv --dim 16
                --out ${WORK_DIR}/rfn.sarnsnap
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "snapshot save --encoder rfn over gat weights succeeded\n${out}")
endif()
# The tag and the text naming the stored variant each appear exactly once.
foreach(needle "variant_mismatch" "trained with encoder=gat")
  string(REGEX MATCHALL "${needle}" hits "${err}")
  list(LENGTH hits hit_count)
  if(NOT hit_count EQUAL 1)
    message(FATAL_ERROR "expected '${needle}' once on stderr, got ${hit_count}:\n${err}")
  endif()
endforeach()
run_step(${SARN_CLI} export --network ${WORK_DIR}/net.csv
         --embeddings ${WORK_DIR}/emb.csv --out ${WORK_DIR}/atlas.geojson)
run_step(${SARN_CLI} eval --network ${WORK_DIR}/net.csv
         --embeddings ${WORK_DIR}/emb.csv --task property)
# Telemetry artifacts must parse: the JSONL metrics file line-by-line, the
# Chrome trace as one JSON document.
run_step(${SARN_CLI} check-json --in ${WORK_DIR}/metrics.jsonl --lines true)
run_step(${SARN_CLI} check-json --in ${WORK_DIR}/trace.json)
# Bad sizes and unusable output paths are usage errors: exit 1 before the
# first epoch with a message naming the flag, never a SARN_CHECK abort (exit
# 134) and never after a whole training run.
function(expect_train_usage_error flag)
  execute_process(COMMAND ${SARN_CLI} train --network ${WORK_DIR}/net.csv ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "train ${ARGN}: expected exit 1, got ${code}\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "train ${ARGN}: message does not name ${flag}: ${err}")
  endif()
  string(FIND "${out}" "training SARN" trained)
  if(NOT trained EQUAL -1)
    message(FATAL_ERROR "train ${ARGN}: started training before failing\n${out}")
  endif()
endfunction()
expect_train_usage_error(--epochs --epochs 0 --dim 16)
expect_train_usage_error(--epochs --epochs -3 --dim 16)
expect_train_usage_error(--dim --epochs 1 --dim 0)
expect_train_usage_error(--dim --epochs 1 --dim 0 --encoder rfn)
expect_train_usage_error(--dim --epochs 1 --dim 3)
# An int flag refuses a value its field cannot hold: 2^32 + 40 would wrap to
# 40 epochs.
expect_train_usage_error(--epochs --epochs 4294967336 --dim 16)
file(WRITE ${WORK_DIR}/not_a_dir "")
file(MAKE_DIRECTORY ${WORK_DIR}/a_dir)
expect_train_usage_error(--checkpoint-dir --epochs 1 --dim 16
                         --checkpoint-dir ${WORK_DIR}/not_a_dir)
expect_train_usage_error(--weights --epochs 1 --dim 16 --weights ${WORK_DIR}/a_dir)
expect_train_usage_error(--weights --epochs 1 --dim 16
                         --weights ${WORK_DIR}/no_such_dir/w.bin)
expect_train_usage_error(--embeddings --epochs 1 --dim 16
                         --embeddings ${WORK_DIR}/a_dir)
expect_train_usage_error(--trace-file --epochs 1 --dim 16
                         --trace-file ${WORK_DIR}/no_such_dir/trace.json)
foreach(artifact net.csv model.ckpt emb.csv atlas.geojson metrics.jsonl trace.json)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "missing artifact ${artifact}")
  endif()
endforeach()
# One epoch record per trained epoch.
file(STRINGS ${WORK_DIR}/metrics.jsonl metric_lines REGEX "\"event\":\"epoch\"")
list(LENGTH metric_lines epoch_lines)
if(NOT epoch_lines EQUAL 2)
  message(FATAL_ERROR "expected 2 epoch records in metrics.jsonl, got ${epoch_lines}")
endif()
# Serve smoke: pipe NDJSON queries (by id, by vector dim-16, by lat/lng)
# through `sarn serve`; every response line must be valid JSON and ok:true.
file(WRITE ${WORK_DIR}/queries.ndjson
  "{\"op\":\"query\",\"id\":0,\"k\":3}\n"
  "{\"vector\":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"k\":2}\n"
  "{\"op\":\"query\",\"lat\":37.76,\"lng\":-122.44,\"k\":2}\n")
execute_process(
  COMMAND ${SARN_CLI} serve --embeddings ${WORK_DIR}/emb.csv
          --network ${WORK_DIR}/net.csv --threads 2
  INPUT_FILE ${WORK_DIR}/queries.ndjson
  OUTPUT_FILE ${WORK_DIR}/responses.ndjson
  ERROR_VARIABLE serve_err RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve failed (${code}): ${serve_err}")
endif()
run_step(${SARN_CLI} check-json --in ${WORK_DIR}/responses.ndjson --lines true)
file(STRINGS ${WORK_DIR}/responses.ndjson ok_lines REGEX "\"ok\":true")
list(LENGTH ok_lines ok_count)
if(NOT ok_count EQUAL 3)
  message(FATAL_ERROR "expected 3 ok serve responses, got ${ok_count}")
endif()
# Serve flags out of range are refused with exit 1 and the flag named, before
# any index is loaded: a negative cache capacity would wrap to an unbounded
# LRU, a negative --k would fail every query that omits "k".
function(expect_serve_usage_error flag)
  execute_process(COMMAND ${SARN_CLI} serve --embeddings ${WORK_DIR}/emb.csv ${ARGN}
                  INPUT_FILE ${WORK_DIR}/queries.ndjson
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "serve ${ARGN}: expected exit 1, got ${code}\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "serve ${ARGN}: message does not name ${flag}: ${err}")
  endif()
endfunction()
expect_serve_usage_error(--cache-capacity --cache-capacity -1)
expect_serve_usage_error(--batch-window-ms --batch-window-ms -3)
expect_serve_usage_error(--batch-window-ms --batch-window-ms nan)
expect_serve_usage_error(--k --k -2)
# 2^32 + 1 would wrap to a default k of 1.
expect_serve_usage_error(--k --k 4294967297)
# The generated usage shows each flag's type and the default the code uses.
function(expect_help command needle)
  execute_process(COMMAND ${SARN_CLI} ${command} --help
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${command} --help: expected exit 0, got ${code}\n${err}")
  endif()
  string(FIND "${out}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${command} --help does not print '${needle}':\n${out}")
  endif()
endfunction()
expect_help(train "--epochs <int>  (default: 40)")
expect_help(serve "--batch-window-ms <float>  (default: 1)")
