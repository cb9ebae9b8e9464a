__version__ = "0.1.0"
# layout version of every JSON report, written by analysis and cli
SCHEMA_VERSION = 1
