#!/usr/bin/env bash
# Fails if a name listed in retired-names.tsv reappears under its paths.
# Run from the repository root: .github/check-retired-names.sh
set -u
table="$(dirname "$0")/retired-names.tsv"
status=0
while IFS=$'\t' read -r pattern paths change doc; do
  case "$pattern" in '' | '#'*) continue ;; esac
  # $paths is a space-separated list: split it on purpose.
  # shellcheck disable=SC2086
  grep -rnE -e "$pattern" $paths
  case $? in
    0) echo "retired name reappeared: /$pattern/ (retired by: $change; see $doc)" >&2; status=1 ;;
    1) ;;
    *) echo "grep failed on /$pattern/ in $paths" >&2; status=1 ;;
  esac
done < "$table"
exit $status
